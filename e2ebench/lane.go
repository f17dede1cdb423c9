package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/admission/arrivals"
	"hourglass/internal/cloud"
	"hourglass/internal/obs"
	"hourglass/internal/scheduler"
	"hourglass/internal/units"
)

// workload is one served configuration and the traffic the client
// sends it.
type workload struct {
	name       string
	backend    string // hourglass-serve -backend
	kind       hourglass.JobKind
	slack      float64
	scale      int // -engine-graph-scale
	deltaChain int // -dist-delta-chain
	killAt     int // -dist-kill-at
	admission  bool
}

var workloads = []workload{
	{name: "admission-sim", backend: "sim", admission: true},
	{name: "dist-pagerank", backend: "dist", kind: hourglass.PageRank, slack: 0.5, scale: 12},
	{name: "dist-wcc-recover", backend: "dist", kind: hourglass.GC, slack: 0.5, scale: 13, deltaChain: 4, killAt: 3},
	{name: "engine-pagerank", backend: "engine", kind: hourglass.PageRank, slack: 0.5, scale: 12},
}

const (
	// workers is the controller's worker pool (hourglass-serve -workers).
	workers = 2
	// admissionPool and admissionQueue are -admission-pool and
	// -admission-queue: a pool of 8 deployments makes some jobs queue.
	admissionPool  = 8
	admissionQueue = 64
	// window is how many arrivals the admission client submits while
	// the runs of the window are held. Seats are freed only when a
	// window drains, so the gate's outcomes depend on the seed alone.
	window = 16
	// jobTimeout bounds one run; the client waits a little longer, so a
	// backend that ignores its context still cannot stall the benchmark.
	jobTimeout  = 20 * time.Second
	clientGrace = 5 * time.Second
	// graphSeed is the RMAT seed the dist and engine backends default to.
	graphSeed = 7
	// marketSeed generates the spot market and seeds the controller's
	// trace offsets (hourglass-serve's default -seed). The benchmark seed
	// draws the jobs, not the market: a new market month per seed would
	// move the cost and decision mix by more than any bound a change
	// could be held to.
	marketSeed = 42
	// warmupSeed draws the warm-up inputs. Set-up then does the same
	// work whatever the run's seed, so setup_s moves with the code and
	// the machine only.
	warmupSeed = 0
)

// lane is one served stack: a System, a wrapped backend and a
// controller, set up exactly as hourglass-serve sets them up.
type lane struct {
	w      workload
	sys    *hourglass.System
	be     *timedBackend
	ctrl   *scheduler.Controller
	clock  *scheduler.VirtualClock // admission lanes only
	tracer *tracer                 // traced lanes only
	feed   *feed

	required map[string]units.Seconds // zero-slack deadline per kind
	vnow     time.Duration            // virtual time since the clock's start
}

// feed hands out the client's inputs in order: job IDs (which the
// controller hashes into trace offsets) and admission windows. Lanes
// sharing a feed run disjoint jobs.
type feed struct {
	prefix   string
	seq      int
	arrivals []arrivals.Arrival
	next     int           // next arrival to hand out
	base     time.Duration // clock offset of the current pass over the stream
}

func (f *feed) id() string {
	f.seq++
	return fmt.Sprintf("%s-%d", f.prefix, f.seq)
}

// window returns the next window of arrivals and their offsets on the
// virtual clock.
func (f *feed) window() ([]arrivals.Arrival, []time.Duration) {
	if f.next+window > len(f.arrivals) {
		// Replay the stream from the start, later on the clock.
		f.base += f.arrivals[len(f.arrivals)-1].At
		f.next = 0
	}
	batch := f.arrivals[f.next : f.next+window]
	f.next += window
	at := make([]time.Duration, len(batch))
	for i, a := range batch {
		at[i] = f.base + a.At
	}
	return batch, at
}

// setupTimes splits one lane's set-up.
type setupTimes struct{ system, inputs, warmup time.Duration }

func (s setupTimes) total() time.Duration { return s.system + s.inputs + s.warmup }

// arrivalSpec is BenchmarkControllerThroughput's tenant mix, seeded,
// with PageRank submissions only: every one is priced by a full
// sim.Decide pass. (Mixed with SSSP, whose pricing is two orders of
// magnitude cheaper, half the submissions are trivial and the median
// Submit falls on the edge between the two kinds.)
func arrivalSpec(seed int64) arrivals.Spec {
	return arrivals.Spec{
		Seed:    seed,
		PerHour: 2500,
		Horizon: 8 * time.Hour,
		Kinds:   []string{string(hourglass.PageRank)},
		Tenants: []arrivals.Tenant{
			{Name: "team-a", Weight: 3, SlackMin: 0.5, SlackMax: 1.5},
			{Name: "team-b", Weight: 2, SlackMin: 0.8, SlackMax: 2, InfeasibleFraction: 0.1},
			{Name: "team-c", Weight: 1, SlackMin: 1, SlackMax: 3},
		},
	}
}

// newLane builds one lane, timing each set-up step, and warms it up
// with the first job or window of fixed inputs under IDs of its own;
// every lane of every run warms up on the same inputs.
func newLane(w workload, traced bool) (*lane, setupTimes, unit, error) {
	var st setupTimes
	l := &lane{w: w, feed: &feed{prefix: "warmup"}}

	t0 := time.Now()
	sys, err := hourglass.New(hourglass.Options{Seed: marketSeed, TraceDays: 10})
	if err != nil {
		return nil, st, unit{}, fmt.Errorf("building system: %w", err)
	}
	for _, k := range l.kinds() {
		if _, err := sys.Env(k); err != nil {
			return nil, st, unit{}, fmt.Errorf("building %s env: %w", k, err)
		}
	}
	l.sys = sys
	st.system = time.Since(t0)

	t0 = time.Now()
	if w.admission {
		if l.feed.arrivals, err = arrivalSpec(warmupSeed).Generate(); err != nil {
			return nil, st, unit{}, err
		}
		l.required = map[string]units.Seconds{}
		for _, k := range l.kinds() {
			if l.required[string(k)], err = sys.DeadlineFor(k, 0); err != nil {
				return nil, st, unit{}, err
			}
		}
	}
	st.inputs = time.Since(t0)

	t0 = time.Now()
	var sink obs.Sink
	var store cloud.BlobStore
	if traced {
		l.tracer = &tracer{sequential: !w.admission}
		sink = l.tracer
		if w.backend != "sim" {
			store = &timedStore{inner: cloud.NewDatastore(), t: l.tracer}
		}
	}
	l.be = newTimedBackend(serveBackend(w, sys, store, sink), l.tracer)
	opts := scheduler.Options{
		Backend: l.be,
		Workers: workers,
		Seed:    marketSeed,
		Sink:    sink,
	}
	if w.admission {
		l.clock = scheduler.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
		opts.Clock = l.clock
		opts.Admission = &admission.Config{MaxDeployments: admissionPool, QueueDepth: admissionQueue}
	}
	if l.ctrl, err = scheduler.New(opts); err != nil {
		return nil, st, unit{}, err
	}
	u := l.runUnit()
	if err := u.failure(); err != nil {
		l.shutdown()
		return nil, st, unit{}, fmt.Errorf("warm-up: %w", err)
	}
	st.warmup = time.Since(t0)
	return l, st, u, nil
}

func (l *lane) kinds() []hourglass.JobKind {
	if l.w.admission {
		return []hourglass.JobKind{hourglass.PageRank}
	}
	return []hourglass.JobKind{l.w.kind}
}

// serveBackend configures the backend as hourglass-serve does for
// -backend=<w.backend>; store and sink are nil on untraced lanes.
func serveBackend(w workload, sys *hourglass.System, store cloud.BlobStore, sink obs.Sink) servedBackend {
	discard := func(string, ...any) {}
	switch w.backend {
	case "engine":
		if store == nil {
			store = cloud.NewDatastore()
		}
		return &scheduler.EngineBackend{
			Sys:           sys,
			Store:         store,
			Sink:          sink,
			GraphScale:    w.scale,
			Watchdog:      30 * time.Second,
			RestartBudget: 8,
			Logf:          discard,
		}
	case "dist":
		return &scheduler.DistBackend{
			Sys:             sys,
			Store:           store,
			Sink:            sink,
			Shards:          4,
			GraphScale:      w.scale,
			DeltaChain:      w.deltaChain,
			KillAtSuperstep: w.killAt,
			Logf:            discard,
		}
	default:
		return scheduler.SystemBackend{Sys: sys, Sink: sink}
	}
}

// unit is one closed-loop step of the client: a job submitted and
// waited for, or an admission window submitted and drained.
type unit struct {
	jobs       []*jobRec
	infeasible []bool // admission: the generator marked the arrival infeasible
}

// failure reports the first job that failed, if any.
func (u unit) failure() error {
	for _, r := range u.jobs {
		if err := r.failure(); err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
	}
	return nil
}

// failure classifies a job: admission rejections are outcomes, not
// failures; anything else that kept the job from finishing is.
func (r *jobRec) failure() error {
	var inf *admission.InfeasibleError
	switch {
	case r.submitErr != nil && !errors.As(r.submitErr, &inf):
		return r.submitErr
	case r.submitErr != nil:
		return nil
	case r.timedOut:
		return fmt.Errorf("no result within %v", jobTimeout+clientGrace)
	case r.runErr != nil:
		return r.runErr
	}
	return nil
}

// rejected reports an admission rejection.
func (r *jobRec) rejected() bool { return r.submitErr != nil && r.failure() == nil }

// ran reports a job whose run returned without error.
func (r *jobRec) ran() bool { return r.submitErr == nil && !r.timedOut && r.runErr == nil }

// dispatchFrom is when the controller could first start the job's
// run: Submit's return, or the release of its admission window.
func (r *jobRec) dispatchFrom() time.Time {
	if r.released.After(r.submitEnd) {
		return r.released
	}
	return r.submitEnd
}

// runUnit performs the lane's next closed-loop step.
func (l *lane) runUnit() unit {
	if l.w.admission {
		return l.runWindow()
	}
	spec := scheduler.JobSpec{
		ID:       l.feed.id(),
		Kind:     l.w.kind,
		Strategy: hourglass.StrategyHourglass,
		Slack:    l.w.slack,
		Period:   scheduler.Duration(time.Hour),
		Runs:     1,
	}
	r := l.submit(spec)
	if r.submitErr == nil {
		deadline := time.Now().Add(jobTimeout + clientGrace)
		l.await(r, deadline)
		l.settle(r.id, deadline)
	}
	return unit{jobs: []*jobRec{r}}
}

// settle waits until the controller has recorded the job's run. The
// worker books the outcome after Run returns, under the controller's
// lock; the next Submit would otherwise race that bookkeeping, and
// submit_ms would time the race instead of Submit.
func (l *lane) settle(id string, deadline time.Time) {
	for time.Now().Before(deadline) {
		if st, ok := l.ctrl.Get(id); !ok || st.Done {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (l *lane) submit(spec scheduler.JobSpec) *jobRec {
	r := l.be.expect(spec.ID)
	r.kind = spec.Kind
	r.submitStart = time.Now()
	st, err := l.ctrl.Submit(spec)
	r.submitEnd = time.Now()
	r.submitErr, r.queued = err, err == nil && st.Queued
	return r
}

// await waits for the job's run to return, up to the deadline.
func (l *lane) await(r *jobRec, deadline time.Time) {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-r.done:
	case <-t.C:
		r.timedOut = true
	}
}

// runWindow submits the next window of arrivals on the virtual clock
// with runs held, then releases the runs and waits until every seat
// and queue slot the window took is free again.
func (l *lane) runWindow() unit {
	var u unit
	batch, offsets := l.feed.window()
	l.be.holdRuns()
	for i, a := range batch {
		if offsets[i] > l.vnow {
			l.clock.Advance(offsets[i] - l.vnow)
			l.vnow = offsets[i]
		}
		spec := scheduler.JobSpec{
			ID:       l.feed.id(),
			Kind:     hourglass.JobKind(a.Kind),
			Strategy: hourglass.StrategyHourglass,
			Slack:    a.Slack,
			Period:   scheduler.Duration(time.Hour),
			Runs:     1,
			Tenant:   a.Tenant,
		}
		if a.Infeasible {
			spec.Deadline = scheduler.Duration(time.Duration(a.DeadlineScale * float64(l.required[a.Kind].Duration())))
		}
		u.jobs = append(u.jobs, l.submit(spec))
		u.infeasible = append(u.infeasible, a.Infeasible)
	}
	released := time.Now()
	l.be.releaseRuns()
	deadline := released.Add(jobTimeout + clientGrace)
	for _, r := range u.jobs {
		r.released = released
		if r.submitErr == nil {
			l.await(r, deadline)
		}
	}
	// A seat is freed after Run returns, under the controller's lock;
	// wait for that too so the next window meets an empty gate.
	for time.Now().Before(deadline) {
		v, _ := l.ctrl.AdmissionView()
		if v.QueueDepth == 0 && len(v.Deployments) == 0 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	return u
}

// shutdown stops the controller, giving up on runs that ignore their
// context (the process exit reclaims them).
func (l *lane) shutdown() {
	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = l.ctrl.Shutdown(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
}
