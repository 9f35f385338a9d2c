package actuary

import (
	"sync/atomic"
	"time"
)

// Back-pressure instrumentation for the streaming pipeline. Every
// Stream (and therefore every Evaluate, which rides on Stream)
// updates a set of lock-free counters on its Session: queue depth
// between the pump and the workers, requests in flight, worker busy
// time against worker lifetime, and per-question latency. Server
// deployments read them through Session.Metrics (and actuaryd's
// GET /metrics) to decide when to scale worker width.

// questionCount sizes the per-question counter table.
const questionCount = int(QuestionSearchBest) + 1

// sessionMetrics is the atomic state behind Session.Metrics.
type sessionMetrics struct {
	streamsStarted   atomic.Int64
	streamsCompleted atomic.Int64

	// queueDepth counts requests handed to the job queue and not yet
	// picked up by a worker; each enqueue records a depth sample so
	// mean depth is observable, not just the instantaneous gauge.
	queueDepth    atomic.Int64
	queueDepthMax atomic.Int64
	queueSamples  atomic.Int64
	queueSum      atomic.Int64

	// inFlight counts requests currently being evaluated.
	inFlight    atomic.Int64
	inFlightMax atomic.Int64

	// busyNanos accumulates time workers spent evaluating;
	// workerNanos accumulates the lifetime of exited workers. Running
	// workers are tracked live through activeWorkers and
	// activeStartSum (the sum of their start stamps), so utilization
	// is meaningful mid-stream, not only between streams.
	busyNanos      atomic.Int64
	workerNanos    atomic.Int64
	activeWorkers  atomic.Int64
	activeStartSum atomic.Int64

	perQuestion [questionCount]questionCounters
}

// workerStarted registers a live worker.
func (m *sessionMetrics) workerStarted(start time.Time) {
	m.activeWorkers.Add(1)
	m.activeStartSum.Add(start.UnixNano())
}

// workerStopped retires a worker, folding its lifetime into the
// completed total.
func (m *sessionMetrics) workerStopped(start time.Time) {
	m.workerNanos.Add(int64(time.Since(start)))
	m.activeStartSum.Add(-start.UnixNano())
	m.activeWorkers.Add(-1)
}

// workerTime returns total worker lifetime: exited workers plus the
// live tenure of running ones. The loads are not one consistent cut,
// so the live term is clamped at zero.
func (m *sessionMetrics) workerTime() time.Duration {
	total := m.workerNanos.Load()
	if n := m.activeWorkers.Load(); n > 0 {
		if live := n*time.Now().UnixNano() - m.activeStartSum.Load(); live > 0 {
			total += live
		}
	}
	return time.Duration(total)
}

type questionCounters struct {
	count    atomic.Int64
	failures atomic.Int64
	nanos    atomic.Int64
	maxNanos atomic.Int64
}

// updateMax lifts m to v if v is larger (lock-free).
func updateMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// enqueued records a slab of n requests about to enter the job queue.
// It runs before the channel send so the worker-side decrement can
// never win the race and drive the gauge negative. The gauge moves
// once and each request records the post-add depth as its sample, so
// MeanQueueDepth means the same whatever the slab size.
func (m *sessionMetrics) enqueued(n int) {
	depth := m.queueDepth.Add(int64(n))
	updateMax(&m.queueDepthMax, depth)
	m.queueSamples.Add(int64(n))
	m.queueSum.Add(int64(n) * depth)
}

// enqueueAborted rolls back an enqueued(n) whose send was abandoned on
// cancellation (the samples stay: they observed a real depth).
func (m *sessionMetrics) enqueueAborted(n int) {
	m.queueDepth.Add(int64(-n))
}

// dequeued records a worker picking up a slab of n requests; the
// per-request finished() calls retire inFlight one at a time.
func (m *sessionMetrics) dequeued(n int) {
	m.queueDepth.Add(int64(-n))
	updateMax(&m.inFlightMax, m.inFlight.Add(int64(n)))
}

// finished records one evaluated request: its latency, outcome and
// question.
func (m *sessionMetrics) finished(q Question, d time.Duration, failed bool) {
	m.inFlight.Add(-1)
	m.busyNanos.Add(int64(d))
	if q < 0 || int(q) >= questionCount {
		return
	}
	qc := &m.perQuestion[q]
	qc.count.Add(1)
	if failed {
		qc.failures.Add(1)
	}
	qc.nanos.Add(int64(d))
	updateMax(&qc.maxNanos, int64(d))
}

// QuestionMetrics is the latency profile of one question kind.
type QuestionMetrics struct {
	// Question identifies the kind.
	Question Question
	// Count and Failures tally evaluated requests and how many of
	// them returned an error.
	Count    int64
	Failures int64
	// TotalLatency and MaxLatency aggregate evaluation time
	// (excluding queue wait).
	TotalLatency time.Duration
	MaxLatency   time.Duration
}

// AvgLatency returns the mean evaluation latency (0 before any
// request).
func (q QuestionMetrics) AvgLatency() time.Duration {
	if q.Count == 0 {
		return 0
	}
	return q.TotalLatency / time.Duration(q.Count)
}

// SessionMetrics is a point-in-time snapshot of a session's
// back-pressure counters. Gauges (QueueDepth, InFlight) and worker
// lifetime read live values, so the snapshot is meaningful both
// mid-stream and at rest.
type SessionMetrics struct {
	// StreamsStarted and StreamsCompleted count Stream invocations
	// (Evaluate calls stream internally and are included).
	StreamsStarted   int64
	StreamsCompleted int64

	// QueueDepth is the instantaneous number of requests waiting for
	// a worker; QueueDepthMax is the high-water mark. QueueDepthSum
	// over QueueDepthSamples is the mean depth observed at enqueue
	// time — the back-pressure signal: a mean near the in-flight
	// bound means generation outruns the pool (add workers), a mean
	// near zero means the pool is starved by generation or by a slow
	// consumer.
	QueueDepth        int64
	QueueDepthMax     int64
	QueueDepthSamples int64
	QueueDepthSum     int64

	// InFlight is the instantaneous number of requests being
	// evaluated; InFlightMax is the high-water mark.
	InFlight    int64
	InFlightMax int64

	// WorkerBusy is the cumulative time workers spent on completed
	// evaluations; WorkerTime is cumulative worker lifetime,
	// including workers still running.
	WorkerBusy time.Duration
	WorkerTime time.Duration

	// PerQuestion profiles each question kind seen so far, in
	// Question order; kinds with no traffic are omitted.
	PerQuestion []QuestionMetrics
}

// MeanQueueDepth returns the average depth observed at enqueue time
// (0 before any request). Each sample counts the request being
// enqueued, so a stream that never backs up still reports a mean
// of 1.
func (m SessionMetrics) MeanQueueDepth() float64 {
	if m.QueueDepthSamples == 0 {
		return 0
	}
	return float64(m.QueueDepthSum) / float64(m.QueueDepthSamples)
}

// Utilization returns the fraction of worker lifetime spent
// evaluating, in [0, 1] (0 before any request has completed). During
// a stream it slightly undercounts — evaluations in progress are not
// yet in WorkerBusy — and converges as requests retire.
func (m SessionMetrics) Utilization() float64 {
	if m.WorkerTime <= 0 {
		return 0
	}
	u := float64(m.WorkerBusy) / float64(m.WorkerTime)
	if u > 1 {
		u = 1
	}
	return u
}

// Requests returns the total evaluated request count.
func (m SessionMetrics) Requests() int64 {
	var n int64
	for _, q := range m.PerQuestion {
		n += q.Count
	}
	return n
}

// Failures returns the total failed request count.
func (m SessionMetrics) Failures() int64 {
	var n int64
	for _, q := range m.PerQuestion {
		n += q.Failures
	}
	return n
}

// MetricsDelta is the activity between two SessionMetrics snapshots
// of the same session — the windowed form of the back-pressure
// signal. Cumulative counters make a long-lived daemon's lifetime
// utilization converge to a constant; a controller deciding whether
// the pool is busy *now* (fleet.Resizer) needs the interval view.
type MetricsDelta struct {
	// Requests and Failures count results retired during the window.
	Requests int64
	Failures int64
	// WorkerBusy and WorkerTime are the window's shares of the
	// cumulative busy/lifetime counters.
	WorkerBusy time.Duration
	WorkerTime time.Duration
	// QueueDepthSamples and QueueDepthSum are the window's queue-depth
	// observations.
	QueueDepthSamples int64
	QueueDepthSum     int64
}

// Delta returns the activity between an earlier snapshot prev and
// this one. Negative intervals (snapshots swapped, or from different
// sessions) clamp to zero rather than reporting nonsense.
func (m SessionMetrics) Delta(prev SessionMetrics) MetricsDelta {
	pos := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	d := MetricsDelta{
		Requests:          pos(m.Requests() - prev.Requests()),
		Failures:          pos(m.Failures() - prev.Failures()),
		WorkerBusy:        time.Duration(pos(int64(m.WorkerBusy - prev.WorkerBusy))),
		WorkerTime:        time.Duration(pos(int64(m.WorkerTime - prev.WorkerTime))),
		QueueDepthSamples: pos(m.QueueDepthSamples - prev.QueueDepthSamples),
		QueueDepthSum:     pos(m.QueueDepthSum - prev.QueueDepthSum),
	}
	return d
}

// Utilization returns the busy share of worker lifetime within the
// window, in [0, 1] (0 for an empty window).
func (d MetricsDelta) Utilization() float64 {
	if d.WorkerTime <= 0 {
		return 0
	}
	u := float64(d.WorkerBusy) / float64(d.WorkerTime)
	if u > 1 {
		u = 1
	}
	return u
}

// MeanQueueDepth returns the mean depth observed at enqueue time
// within the window (0 for a window with no enqueues).
func (d MetricsDelta) MeanQueueDepth() float64 {
	if d.QueueDepthSamples == 0 {
		return 0
	}
	return float64(d.QueueDepthSum) / float64(d.QueueDepthSamples)
}

// Metrics snapshots the session's back-pressure counters. It is safe
// to call concurrently with running streams; counters are read
// atomically but not as one consistent cut.
func (s *Session) Metrics() SessionMetrics {
	m := s.metrics
	snap := SessionMetrics{
		StreamsStarted:    m.streamsStarted.Load(),
		StreamsCompleted:  m.streamsCompleted.Load(),
		QueueDepth:        m.queueDepth.Load(),
		QueueDepthMax:     m.queueDepthMax.Load(),
		QueueDepthSamples: m.queueSamples.Load(),
		QueueDepthSum:     m.queueSum.Load(),
		InFlight:          m.inFlight.Load(),
		InFlightMax:       m.inFlightMax.Load(),
		WorkerBusy:        time.Duration(m.busyNanos.Load()),
		WorkerTime:        m.workerTime(),
	}
	for i := range m.perQuestion {
		qc := &m.perQuestion[i]
		count := qc.count.Load()
		if count == 0 {
			continue
		}
		snap.PerQuestion = append(snap.PerQuestion, QuestionMetrics{
			Question:     Question(i),
			Count:        count,
			Failures:     qc.failures.Load(),
			TotalLatency: time.Duration(qc.nanos.Load()),
			MaxLatency:   time.Duration(qc.maxNanos.Load()),
		})
	}
	return snap
}
