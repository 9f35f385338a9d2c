// Package client is the typed Go client for the actuaryd service: it
// speaks the wire protocol of the root package over HTTP and hands
// back the same Request/Result types a local Session produces, so a
// program can switch between in-process and remote evaluation through
// one interface (Backend).
//
//	c, err := client.Dial("http://localhost:8833")
//	results, err := c.Evaluate(ctx, reqs)
//	ch, err := c.Stream(ctx, client.StreamRequest{Scenario: scenario})
//
// Transport failures are classified actuary.ErrTransport: batch calls
// return them as the call's error; a stream that dies mid-flight
// delivers one final in-band Result carrying the transport error, so
// aggregators draining the channel observe the failure instead of a
// silently short stream.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"chipletactuary"
)

// Backend is the one interface for local and remote evaluation.
// *Client implements it over HTTP; Local wraps an in-process Session.
type Backend interface {
	// Evaluate answers a batch, results in input order.
	Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error)
	// Stream compiles the request's scenario and emits results as they
	// complete (or in index order, when the request asks for it). The
	// channel closes when the stream is exhausted (or the context is
	// canceled); failures arrive in-band on Result.Err.
	Stream(ctx context.Context, req StreamRequest) (<-chan actuary.Result, error)
}

// ShardSpec selects one stripe of a scenario's request stream:
// stripe Index of Count total. The zero value means "unsharded".
type ShardSpec struct {
	Index int
	Count int
}

// StreamRequest is the one streaming request shape every Backend
// takes: the scenario plus the per-call delivery concerns — sharding,
// resumption and ordering — that used to be smuggled through scenario
// fields by each caller separately. The zero value of everything but
// Scenario streams the whole scenario unordered, exactly as the old
// Stream(ctx, cfg) did.
//
// Shard, Resume and Ordered are request-level alternatives to the
// scenario's own shard_index/shard_count/resume fields; a scenario
// that already carries them conflicts with a request that sets them
// too, and the conflict is rejected rather than silently resolved.
type StreamRequest struct {
	// Scenario is the workload to compile and stream.
	Scenario actuary.ScenarioConfig
	// Shard, when Count > 0, streams only stripe Index of Count.
	Shard ShardSpec
	// Resume skips the first Resume requests without evaluating them
	// and numbers the survivors from Resume — the stream-position
	// contract StreamCheckpoint.Next is built on. Resume > 0 implies
	// ordered delivery.
	Resume int
	// Ordered delivers results in source-index order even when Resume
	// is zero — what a consumer diffing or checkpointing the stream
	// needs from the first line.
	Ordered bool
}

// config folds the request-level delivery fields into the scenario's
// wire form — the shape /v1/stream and ScenarioConfig.Source already
// honor — rejecting conflicts between the two levels.
func (r StreamRequest) config() (actuary.ScenarioConfig, error) {
	cfg := r.Scenario
	if r.Shard.Count > 0 || r.Shard.Index != 0 {
		if cfg.ShardIndex != 0 || cfg.ShardCount != 0 {
			return cfg, fmt.Errorf("client: StreamRequest.Shard conflicts with the scenario's own shard_index/shard_count")
		}
		cfg.ShardIndex = r.Shard.Index
		cfg.ShardCount = r.Shard.Count
	}
	if r.Resume < 0 {
		return cfg, fmt.Errorf("client: StreamRequest.Resume must not be negative, got %d", r.Resume)
	}
	if r.Resume > 0 || r.Ordered {
		if cfg.Resume != nil {
			return cfg, fmt.Errorf("client: StreamRequest.Resume/Ordered conflicts with the scenario's own resume field")
		}
		cfg.Resume = &actuary.StreamResume{NextIndex: r.Resume}
	}
	return cfg, nil
}

// Client speaks the wire protocol to one actuaryd base URL.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the HTTP client (timeouts, transports,
// middleware). The default is http.DefaultClient; streaming responses
// hold the connection open, so per-request timeouts belong on the
// context, not the client.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// Dial validates the base URL ("http://host:port") and returns a
// Client. No connection is made — use Ping for a liveness check.
func Dial(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q needs an http or https scheme", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q has no host", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// transportError wraps a client-side failure with the ErrTransport
// code so callers can route on the taxonomy.
func transportError(err error) error {
	return &actuary.Error{Code: actuary.ErrTransport, Index: -1, Question: -1, Err: err}
}

// serverError decodes a non-200 response into an error, preserving
// the server's structured code when the body carries an
// actuary.ErrorBody.
func serverError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var eb actuary.ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error.Code != "" {
		code, perr := actuary.ParseErrorCode(eb.Error.Code)
		if perr != nil {
			code = actuary.ErrTransport
		}
		return &actuary.Error{Code: code, Index: -1, Question: -1,
			Err: fmt.Errorf("server: %s (HTTP %d)", eb.Error.Message, resp.StatusCode)}
	}
	return transportError(fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body)))
}

// post issues one POST with a JSON body.
func (c *Client) post(ctx context.Context, path, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, transportError(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, transportError(err)
	}
	return resp, nil
}

// get issues one GET and maps non-200 statuses to structured errors.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, transportError(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, transportError(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, serverError(resp)
	}
	return resp, nil
}

// Evaluate implements Backend over POST /v1/evaluate.
func (c *Client) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	body, err := json.Marshal(reqs)
	if err != nil {
		return nil, transportError(fmt.Errorf("encoding requests: %w", err))
	}
	resp, err := c.post(ctx, "/v1/evaluate", "application/json", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, serverError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, transportError(err)
	}
	results, err := actuary.DecodeResults(data)
	if err != nil {
		return nil, transportError(err)
	}
	return results, nil
}

// Stream implements Backend over POST /v1/stream: the request folds
// into the scenario's wire form, ships to the server, compiles there,
// and results arrive on the returned channel as NDJSON lines
// complete. The caller must drain the channel or cancel ctx; a
// transport failure mid-stream is delivered as a final in-band Result
// with an ErrTransport error.
func (c *Client) Stream(ctx context.Context, sr StreamRequest) (<-chan actuary.Result, error) {
	cfg, err := sr.config()
	if err != nil {
		return nil, err
	}
	// A scenario loaded from a v1 document carries Version 1 as a
	// provenance marker, but its in-memory shape is the v2 schema —
	// re-serializing it as "version": 1 would make the server reject
	// what the Local backend happily streams. Normalize before
	// shipping so both backends accept exactly the same configs.
	if cfg.Version == 1 {
		cfg.Version = 2
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		return nil, transportError(fmt.Errorf("encoding scenario: %w", err))
	}
	resp, err := c.post(ctx, "/v1/stream", "application/json", body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, serverError(resp)
	}
	out := make(chan actuary.Result)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		// NDJSON is a stream of self-delimiting JSON values, so a
		// json.Decoder reads it directly — no line scanner, and no
		// arbitrary cap on how large one result (a sweep-best answer
		// with a huge top-K, say) may be.
		dec := json.NewDecoder(resp.Body)
		for {
			var res actuary.Result
			if err := dec.Decode(&res); err != nil {
				// EOF ends the stream; anything else is a broken
				// transport unless the caller caused it by canceling.
				if errors.Is(err, io.EOF) || ctx.Err() != nil {
					return
				}
				select {
				case out <- actuary.Result{Index: -1, Err: transportError(fmt.Errorf("decoding stream: %w", err))}:
				case <-ctx.Done():
				}
				return
			}
			select {
			case out <- res:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// Questions fetches the server's evaluation-API self-description.
func (c *Client) Questions(ctx context.Context) ([]actuary.QuestionInfo, error) {
	resp, err := c.get(ctx, "/v1/questions")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var infos []actuary.QuestionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, transportError(err)
	}
	return infos, nil
}

// ProbeError marks a health-probe failure: the backend could not be
// reached, or answered the probe malformed. The wrapped error keeps
// its taxonomy (a probe-time transport failure still classifies
// actuary.ErrTransport), but the type lets schedulers distinguish
// "never came up" — a Ping or Probe that failed — from a transport
// error that killed real mid-sweep work.
type ProbeError struct {
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *ProbeError) Error() string { return "probe: " + e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ProbeError) Unwrap() error { return e.Err }

// Prober is the optional health surface of a Backend: one probe
// observation of the backend's liveness and load. *Client and the
// Local wrapper implement it; fleet.Monitor consumes it. Probe errors
// are *ProbeError values.
type Prober interface {
	Probe(ctx context.Context) (Status, error)
}

// Status is one probe observation of a backend: scalars a scheduler
// can score, whichever probe surface produced them.
type Status struct {
	// Source names the surface the observation came from: "metricz"
	// (GET /v1/metricz), "metrics" (Prometheus text fallback) or
	// "session" (an in-process Session).
	Source string
	// Workers is the backend's worker-pool width (0 when the
	// surface does not report it).
	Workers int
	// QueueDepth and InFlight are the instantaneous back-pressure
	// gauges; MeanQueueDepth is the mean depth observed at enqueue.
	QueueDepth     int64
	InFlight       int64
	MeanQueueDepth float64
	// Utilization is the busy share of worker lifetime, in [0, 1].
	Utilization float64
	// Requests and Failures count evaluated and failed requests.
	Requests int64
	Failures int64
}

// Ping checks GET /healthz. Failures are typed *ProbeError (wrapping
// the transport or server error) so callers can tell a failed
// liveness check from a failure during real work.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.get(ctx, "/healthz")
	if err != nil {
		return &ProbeError{Err: err}
	}
	resp.Body.Close()
	return nil
}

// Metricz fetches GET /v1/metricz: the backend's counters as one
// strict-decoded snapshot.
func (c *Client) Metricz(ctx context.Context) (*actuary.MetricsSnapshot, error) {
	resp, err := c.get(ctx, "/v1/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, transportError(err)
	}
	var snap actuary.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, transportError(err)
	}
	return &snap, nil
}

// Probe implements Prober over HTTP. It prefers GET /v1/metricz (one
// strict-decoded JSON snapshot); against a daemon predating that
// endpoint (a clean 404/405) it falls back to parsing the Prometheus
// text of GET /metrics. Failures are *ProbeError values.
func (c *Client) Probe(ctx context.Context) (Status, error) {
	resp, err := c.fetch(ctx, "/v1/metricz")
	if err != nil {
		return Status{}, &ProbeError{Err: err}
	}
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
		// An older daemon: /v1/metricz does not exist there, but the
		// Prometheus text carries enough to score the backend.
		resp.Body.Close()
		return c.probeProm(ctx)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, &ProbeError{Err: serverError(resp)}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Status{}, &ProbeError{Err: transportError(err)}
	}
	var snap actuary.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Status{}, &ProbeError{Err: transportError(err)}
	}
	return Status{
		Source:         "metricz",
		Workers:        snap.Workers,
		QueueDepth:     snap.Session.QueueDepth,
		InFlight:       snap.Session.InFlight,
		MeanQueueDepth: snap.Session.MeanQueueDepth(),
		Utilization:    snap.Session.Utilization(),
		Requests:       snap.Session.Requests(),
		Failures:       snap.Session.Failures(),
	}, nil
}

// probeProm scores a backend from its Prometheus text — the fallback
// probe surface for daemons without /v1/metricz.
func (c *Client) probeProm(ctx context.Context) (Status, error) {
	resp, err := c.fetch(ctx, "/metrics")
	if err != nil {
		return Status{}, &ProbeError{Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, &ProbeError{Err: serverError(resp)}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Status{}, &ProbeError{Err: transportError(err)}
	}
	st := Status{Source: "metrics"}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		// Labeled series ("actuary_requests_total{question=...}") sum
		// into their family total.
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			continue
		}
		switch name {
		case "actuary_workers":
			st.Workers = int(v)
		case "actuary_queue_depth":
			st.QueueDepth = int64(v)
		case "actuary_queue_depth_mean":
			st.MeanQueueDepth = v
		case "actuary_in_flight":
			st.InFlight = int64(v)
		case "actuary_worker_utilization":
			st.Utilization = v
		case "actuary_requests_total":
			st.Requests += int64(v)
		case "actuary_request_failures_total":
			st.Failures += int64(v)
		}
	}
	return st, nil
}

// fetch issues one GET and returns the response whatever its status —
// Probe needs the status code to pick its fallback, which the
// error-mapping get() hides.
func (c *Client) fetch(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, transportError(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, transportError(err)
	}
	return resp, nil
}

// local adapts an in-process Session to the Backend interface.
type local struct {
	s *actuary.Session
}

// Local wraps a Session so in-process evaluation satisfies the same
// Backend interface the remote client does — the switch between
// linking the library and calling a service is one constructor.
func Local(s *actuary.Session) Backend { return local{s: s} }

// Evaluate implements Backend on the wrapped session.
func (l local) Evaluate(ctx context.Context, reqs []actuary.Request) ([]actuary.Result, error) {
	return l.s.Evaluate(ctx, reqs), nil
}

// Stream implements Backend: the scenario compiles locally and
// streams through the session's worker pool. Resumption means the
// same thing it means on /v1/stream — index-ordered delivery from the
// resume point, prefix regenerated but not re-evaluated — so a
// consumer checkpointing a stream need not care which backend serves
// it.
func (l local) Stream(ctx context.Context, sr StreamRequest) (<-chan actuary.Result, error) {
	cfg, err := sr.config()
	if err != nil {
		return nil, err
	}
	next, ordered, err := cfg.ResumeIndex()
	if err != nil {
		return nil, err
	}
	src, err := cfg.Source()
	if err != nil {
		return nil, err
	}
	spec := actuary.StreamSpec{Ordered: ordered}
	if ordered {
		spec.ResumeAt = next
	}
	return l.s.Stream(ctx, src, spec.Options()...)
}

// Probe implements Prober on the wrapped session: an in-process
// backend is always reachable, so the observation is a direct
// Session.Metrics read.
func (l local) Probe(context.Context) (Status, error) {
	m := l.s.Metrics()
	return Status{
		Source:         "session",
		Workers:        l.s.Workers(),
		QueueDepth:     m.QueueDepth,
		InFlight:       m.InFlight,
		MeanQueueDepth: m.MeanQueueDepth(),
		Utilization:    m.Utilization(),
		Requests:       m.Requests(),
		Failures:       m.Failures(),
	}, nil
}
