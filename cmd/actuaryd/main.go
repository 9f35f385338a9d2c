// Command actuaryd serves the chiplet-actuary evaluation API over
// HTTP: the wire protocol of the root package, one shared Session,
// bounded streaming back-pressure, and Prometheus metrics.
//
// Usage:
//
//	actuaryd [-addr :8833] [-tech tech.json] [-workers N] [-inflight N]
//	         [-cache N] [-partials-cache N]
//	         [-workers-min N -workers-max N [-resize-every D]]
//
// -cache bounds the KGD table (default 4096 entries) and
// -partials-cache the packaging-partial and uniform-shape tables
// (default 8192 entries each); 0 disables memoization and a negative
// size is rejected.
//
// Endpoints (see the server package):
//
//	POST /v1/evaluate   batch of wire requests → batch of results
//	POST /v1/stream     scenario JSON → NDJSON result stream
//	GET  /v1/questions  API self-description
//	GET  /v1/metricz    metrics snapshot as canonical JSON
//	GET  /healthz       liveness
//	GET  /metrics       back-pressure + cache counters
//
// With -workers-min/-workers-max the worker pool is elastic: a
// fleet.Resizer watches the session's back-pressure metrics every
// -resize-every and walks the pool width within the bounds — growing
// under sustained saturation, shrinking when workers sit idle. The
// current width is observable as actuary_workers on /metrics and
// "workers" on /v1/metricz.
//
// The daemon prints "actuaryd listening on http://HOST:PORT" once the
// listener is up (with -addr :0 the kernel-assigned port appears
// there), and shuts down cleanly on SIGINT/SIGTERM: the listener
// closes, in-flight streams get a grace period to drain, and the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chipletactuary"
	"chipletactuary/fleet"
	"chipletactuary/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "actuaryd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("actuaryd", flag.ContinueOnError)
	addr := fs.String("addr", ":8833", "listen address (use :0 for a kernel-assigned port)")
	sf := addSessionFlags(fs)
	inFlight := fs.Int("inflight", 0, "per-stream in-flight bound (default: twice the worker count)")
	resizeEvery := fs.Duration("resize-every", 2*time.Second, "elastic pool resize interval (needs -workers-min/-workers-max)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts, err := sf.options()
	if err != nil {
		return err
	}
	session, err := actuary.NewSession(opts...)
	if err != nil {
		return err
	}
	if sf.elastic() {
		resizer, err := fleet.NewResizer(session, fleet.ResizeEvery(*resizeEvery))
		if err != nil {
			return err
		}
		resizeCtx, stopResize := context.WithCancel(context.Background())
		defer stopResize()
		go resizer.Run(resizeCtx)
	}
	var srvOpts []server.Option
	if *inFlight > 0 {
		srvOpts = append(srvOpts, server.WithInFlight(*inFlight))
	}
	srv := server.New(session, srvOpts...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Request contexts hang off baseCtx, NOT the signal context: a
	// SIGTERM must leave in-flight batches and streams running through
	// the grace period, not cancel them instantly. baseCtx is canceled
	// only after the grace expires, to cut off work that would not
	// drain.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	handler := srv.Handler()
	if *pprofOn {
		// Profiling is opt-in: the pprof endpoints expose heap and CPU
		// internals and do not belong on a default deployment. The API
		// handler keeps everything outside /debug/pprof/.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
		// Header and idle timeouts shed slowloris-style connections.
		// No ReadTimeout/WriteTimeout: /v1/stream responses legitimately
		// run as long as the sweep does.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(out, "actuaryd listening on http://%s\n", listenHost(ln.Addr()))

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "actuaryd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// The grace period expired with work still in flight (a long
		// sweep, a slow reader). Cancel the request contexts — which
		// stops generation and drains the streams — and give the
		// handlers a moment to retire before giving up.
		cancelBase()
		finalCtx, cancelFinal := context.WithTimeout(context.Background(), time.Second)
		defer cancelFinal()
		if err := httpSrv.Shutdown(finalCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// sessionFlags are the flags that shape the daemon's Session.
type sessionFlags struct {
	tech                            string
	workers, workersMin, workersMax int
	cacheSize, partialsSize         int
}

func addSessionFlags(fs *flag.FlagSet) *sessionFlags {
	f := new(sessionFlags)
	fs.StringVar(&f.tech, "tech", "", "optional technology database JSON (default: built-in)")
	fs.IntVar(&f.workers, "workers", 0, "session worker pool width (default: one per CPU)")
	fs.IntVar(&f.workersMin, "workers-min", 0, "lower bound for the elastic worker pool (with -workers-max)")
	fs.IntVar(&f.workersMax, "workers-max", 0, "upper bound for the elastic worker pool (with -workers-min)")
	fs.IntVar(&f.cacheSize, "cache", actuary.DefaultCacheSize, "KGD cache entries (0 disables memoization)")
	fs.IntVar(&f.partialsSize, "partials-cache", actuary.DefaultPartialsCacheSize, "entries in each of the packaging-partial and uniform-shape tables (0 disables memoization)")
	return f
}

func (f *sessionFlags) elastic() bool { return f.workersMin != 0 || f.workersMax != 0 }

// options maps the flags to Session options. Both cache sizes are
// always passed, so 0 disables memoization; a negative size is a usage
// error rather than a silent default.
func (f *sessionFlags) options() ([]actuary.Option, error) {
	if f.cacheSize < 0 {
		return nil, fmt.Errorf("-cache %d: want an entry count ≥ 0 (0 disables memoization)", f.cacheSize)
	}
	if f.partialsSize < 0 {
		return nil, fmt.Errorf("-partials-cache %d: want an entry count ≥ 0 (0 disables memoization)", f.partialsSize)
	}
	db := actuary.DefaultTech()
	if f.tech != "" {
		var err error
		if db, err = actuary.LoadTechFile(f.tech); err != nil {
			return nil, err
		}
	}
	opts := []actuary.Option{actuary.WithTech(db),
		actuary.WithCacheSize(f.cacheSize), actuary.WithPartialsCacheSize(f.partialsSize)}
	if f.workers > 0 {
		opts = append(opts, actuary.WithWorkers(f.workers))
	}
	if f.elastic() {
		opts = append(opts, actuary.WithWorkerBounds(f.workersMin, f.workersMax))
	}
	return opts, nil
}

// listenHost renders a listener address for display, substituting
// 127.0.0.1 for the unspecified host so the printed URL is curlable.
func listenHost(addr net.Addr) string {
	tcp, ok := addr.(*net.TCPAddr)
	if !ok {
		return addr.String()
	}
	host := tcp.IP.String()
	if tcp.IP == nil || tcp.IP.IsUnspecified() {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("%s:%d", host, tcp.Port)
}
