package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/cloud"
	"hourglass/internal/obs"
	"hourglass/internal/scheduler"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// The recorders in this file time the served path from outside: each
// wraps a public interface the program already takes (scheduler.Backend
// and Estimator, cloud.BlobStore, obs.Sink) and stamps wall time
// around the calls that cross it. Untraced lanes read the clock only
// at Run entry and exit; the client times Submit itself.

// servedBackend is what hourglass-serve hands the controller: a
// Backend that can also price submissions for the admission gate.
type servedBackend interface {
	scheduler.Backend
	scheduler.Estimator
}

// jobRec is one submitted job as the client and the backend wrapper
// see it. The client owns the submit fields; the worker running the
// job writes the run fields and then closes done.
type jobRec struct {
	id          string
	kind        hourglass.JobKind
	submitStart time.Time
	submitEnd   time.Time
	submitErr   error
	queued      bool // parked in the admission wait queue at submit
	released    time.Time
	admitDur    time.Duration // traced lanes only
	estimateDur time.Duration // traced lanes only

	runStart time.Time
	runEnd   time.Time
	res      sim.RunResult
	runErr   error
	trace    *jobTrace // traced sequential lanes only
	done     chan struct{}
	timedOut bool
}

// timedBackend forwards to the served backend. It registers the jobs
// the client submits, can hold runs until the client releases them
// (admission windows), bounds every run with a wall-clock timeout, and
// on traced lanes times Admit and Estimate.
type timedBackend struct {
	inner  servedBackend
	tracer *tracer // nil on untraced lanes

	mu   sync.Mutex
	jobs map[string]*jobRec
	hold chan struct{} // non-nil while runs must wait for release
}

func newTimedBackend(inner servedBackend, tr *tracer) *timedBackend {
	return &timedBackend{inner: inner, tracer: tr, jobs: map[string]*jobRec{}}
}

// expect registers a job before its Submit so the wrapper can find it.
func (b *timedBackend) expect(id string) *jobRec {
	r := &jobRec{id: id, done: make(chan struct{})}
	b.mu.Lock()
	b.jobs[id] = r
	b.mu.Unlock()
	return r
}

func (b *timedBackend) lookup(id string) *jobRec {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.jobs[id]
}

// holdRuns makes runs dispatched from now on wait for releaseRuns.
func (b *timedBackend) holdRuns() {
	b.mu.Lock()
	b.hold = make(chan struct{})
	b.mu.Unlock()
}

// releaseRuns lets every held run start and stops holding new ones.
func (b *timedBackend) releaseRuns() {
	b.mu.Lock()
	if b.hold != nil {
		close(b.hold)
		b.hold = nil
	}
	b.mu.Unlock()
}

// Admit forwards, timing the call on traced lanes.
func (b *timedBackend) Admit(spec scheduler.JobSpec) (units.Seconds, units.Seconds, units.USD, error) {
	if b.tracer == nil {
		return b.inner.Admit(spec)
	}
	t0 := time.Now()
	deadline, horizon, baseline, err := b.inner.Admit(spec)
	d := time.Since(t0)
	if r := b.lookup(spec.ID); r != nil {
		r.admitDur = d
	}
	return deadline, horizon, baseline, err
}

// Estimate forwards, timing the call on traced lanes.
func (b *timedBackend) Estimate(spec scheduler.JobSpec, deadline, at units.Seconds) (admission.Estimate, error) {
	if b.tracer == nil {
		return b.inner.Estimate(spec, deadline, at)
	}
	t0 := time.Now()
	est, err := b.inner.Estimate(spec, deadline, at)
	d := time.Since(t0)
	if r := b.lookup(spec.ID); r != nil {
		r.estimateDur = d
	}
	return est, err
}

// Run waits while runs are held, then forwards under the per-job
// timeout and publishes the outcome to the waiting client.
func (b *timedBackend) Run(ctx context.Context, spec scheduler.JobSpec, start, deadline units.Seconds) (sim.RunResult, error) {
	b.mu.Lock()
	hold := b.hold
	r := b.jobs[spec.ID]
	b.mu.Unlock()
	if hold != nil {
		select {
		case <-hold:
		case <-ctx.Done():
			return sim.RunResult{}, ctx.Err()
		}
	}
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var jt *jobTrace
	if b.tracer != nil && b.tracer.sequential {
		jt = b.tracer.begin()
	}
	t0 := time.Now()
	res, err := b.inner.Run(ctx, spec, start, deadline)
	t1 := time.Now()
	if jt != nil {
		b.tracer.end(jt)
	}
	if r != nil {
		r.runStart, r.runEnd, r.res, r.runErr, r.trace = t0, t1, res, err, jt
		close(r.done)
	}
	return res, err
}

// stamped is one trace event with the wall time the recorder got it.
type stamped struct {
	at time.Time
	ev obs.Event
}

// storeOp is one timed BlobStore call.
type storeOp struct {
	dur   time.Duration
	bytes int
}

// jobTrace collects what one job emitted and moved through the store.
type jobTrace struct {
	mu        sync.Mutex
	events    []stamped
	puts      []storeOp
	gets      []storeOp
	storeErrs int // failed Put/Get calls, each retried or fatal
}

// tracer is the obs.Sink recorder of a traced lane. On sequential
// lanes (one job in flight) events and store calls are attributed to
// the running job. Other events are received and dropped: no metric
// needs them, and the admission stream would grow without bound.
type tracer struct {
	sequential bool
	cur        atomic.Pointer[jobTrace]
}

func (t *tracer) begin() *jobTrace {
	jt := &jobTrace{}
	t.cur.Store(jt)
	return jt
}

// end detaches jt, unless a later job (after a timeout) replaced it.
func (t *tracer) end(jt *jobTrace) { t.cur.CompareAndSwap(jt, nil) }

// Emit implements obs.Sink.
func (t *tracer) Emit(e obs.Event) {
	if jt := t.cur.Load(); jt != nil {
		jt.mu.Lock()
		jt.events = append(jt.events, stamped{at: time.Now(), ev: e})
		jt.mu.Unlock()
	}
}

func (t *tracer) storeOp(put bool, d time.Duration, n int, err error) {
	jt := t.cur.Load()
	if jt == nil {
		return
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if err != nil && !errors.Is(err, cloud.ErrNotFound) {
		jt.storeErrs++
	}
	if put {
		jt.puts = append(jt.puts, storeOp{dur: d, bytes: n})
	} else {
		jt.gets = append(jt.gets, storeOp{dur: d, bytes: n})
	}
}

// timedStore is the backends' checkpoint store on traced lanes.
type timedStore struct {
	inner cloud.BlobStore
	t     *tracer
}

func (s *timedStore) Put(key string, data []byte) (units.Seconds, error) {
	t0 := time.Now()
	v, err := s.inner.Put(key, data)
	s.t.storeOp(true, time.Since(t0), len(data), err)
	return v, err
}

func (s *timedStore) Get(key string) ([]byte, units.Seconds, error) {
	t0 := time.Now()
	data, v, err := s.inner.Get(key)
	s.t.storeOp(false, time.Since(t0), len(data), err)
	return data, v, err
}

func (s *timedStore) Delete(key string) error { return s.inner.Delete(key) }
func (s *timedStore) Exists(key string) bool  { return s.inner.Exists(key) }
func (s *timedStore) Keys() []string          { return s.inner.Keys() }
