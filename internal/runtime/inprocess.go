package runtime

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"time"

	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// Options configures one eviction-aware in-process execution.
type Options struct {
	// Env supplies the configuration set, market, eviction traces and
	// per-config stats (required).
	Env *core.Env
	// Prov decides what to run after every eviction and checkpoint
	// boundary (required).
	Prov core.Provisioner
	// Graph is the input graph (required).
	Graph *graph.Graph
	// NewProgram returns a fresh vertex program per (re)start — engine
	// programs may carry per-run state, so each resume gets its own
	// (required).
	NewProgram func() engine.Program
	// Part holds the offline micro-partitioning; every deployment's
	// vertex→worker map comes from Part.VertexAssignment(workers)
	// (required).
	Part *micro.Partitioning
	// Manager persists checkpoints across evictions (required). Its
	// store may be fault-injected; Save/Load times are billed as I/O.
	Manager *engine.CheckpointManager
	// TotalSupersteps is the expected superstep count of an
	// uninterrupted run, the denominator of the work-left model w(t)
	// (required > 0). Programs that halt early just finish sooner;
	// programs that run longer keep w clamped above zero.
	TotalSupersteps int

	// CheckpointEvery checkpoints after this many supersteps when the
	// provisioner asks for checkpointing (0 = derive from the config's
	// Daly interval).
	CheckpointEvery int
	// RestartBudget bounds evictions + watchdog trips before the driver
	// pins the last-resort configuration (0 = 8).
	RestartBudget int
	// Watchdog is the wall-clock budget per superstep; a run that
	// exceeds it is cancelled and redeployed from the last checkpoint
	// (0 = disabled).
	Watchdog time.Duration
	// Canonical forces order-invariant reductions so final values are
	// bit-identical across any worker-count trajectory (see
	// engine.Config.Canonical). Required for sum-folding programs like
	// PageRank to survive reconfiguration bit-exactly.
	Canonical bool
	// Sink receives the structured event stream: EvDecision per
	// provisioner consultation, EvSpend per billing charge in
	// accumulation order, EvDeploy/EvEvict/EvCheckpoint lifecycle
	// markers, EvSuperstep per engine superstep and a final EvDone.
	// Folding the stream with obs.Summarize reproduces the Report's
	// cost and recovery time bit-for-bit. Nil disables tracing.
	Sink obs.Sink
	// Logf receives non-fatal diagnostics (nil = standard logger).
	Logf func(format string, args ...any)
}

// watchdogGrace is how long a watchdog-cancelled engine may take to
// acknowledge before its goroutine is abandoned.
const watchdogGrace = 100 * time.Millisecond

func (o *Options) validate() error {
	switch {
	case o.Graph == nil:
		return errors.New("runtime: nil Graph")
	case o.NewProgram == nil:
		return errors.New("runtime: nil NewProgram")
	case o.Part == nil:
		return errors.New("runtime: nil Part")
	case o.Manager == nil:
		return errors.New("runtime: nil Manager")
	}
	return nil
}

// Execute runs the program to completion under injected evictions,
// starting at virtual time start with an absolute deadline. The
// returned Report is meaningful even alongside an error: it carries
// the spend and I/O accumulated before the failure.
func Execute(ctx context.Context, opts Options, start, deadline units.Seconds) (Report, error) {
	if err := opts.validate(); err != nil {
		return Report{}, err
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	return drive(ctx, config{env: opts.Env, prov: opts.Prov, total: opts.TotalSupersteps,
		restartBudget: opts.RestartBudget, sink: opts.Sink, logf: opts.Logf},
		&inProcess{opts: &opts}, start, deadline)
}

// inProcess is the engine executor: deployments are engine runs in
// this process over a re-clustered vertex assignment.
type inProcess struct{ opts *Options }

// plan bounds the next engine segment: remaining work, capped by the
// checkpoint interval (when the provisioner wants checkpoints) and by
// the provisioner's planned useful interval.
func (x *inProcess) plan(dec core.Decision, cs *core.ConfigStats, secPerStep units.Seconds, done int) segment {
	steps, save := max(1, x.opts.TotalSupersteps-done), false
	if dec.UseCheckpoints {
		every := x.opts.CheckpointEvery
		if every <= 0 && !math.IsInf(float64(cs.Ckpt), 1) {
			every = max(1, int(float64(cs.Ckpt)/float64(secPerStep)))
		}
		if every >= 1 {
			save = true
			steps = min(steps, every)
		}
	}
	if dec.MaxRun > 0 {
		if limit := int(float64(dec.MaxRun) / float64(secPerStep)); limit < steps {
			steps = max(1, limit)
		}
	}
	return segment{steps: steps, save: save}
}

// assign re-clusters the micro-partitions for n workers.
func (x *inProcess) assign(n int) ([]int32, error) {
	a, err := x.opts.Part.VertexAssignment(n)
	if err != nil {
		return nil, fmt.Errorf("runtime: re-cluster to %d workers: %w", n, err)
	}
	return a.Assign, nil
}

// shares sums micro-partition sizes over the memoised clustering: O(micro), not O(V).
func (x *inProcess) shares(n int) ([]int64, error) {
	cluster, err := x.opts.Part.ClusterTo(n)
	sizes, out := x.opts.Part.MicroWeights(), make([]int64, n)
	for m, w := range cluster {
		out[w] += sizes[m]
	}
	return out, err
}

// boot re-clusters for the new worker count and fetches the newest valid checkpoint (retried, CRC-checked,
// fallback-scanned). A fresh or GC'd-empty namespace starts from the
// input graph instead.
func (x *inProcess) boot(_ context.Context, cs *core.ConfigStats, _ int, _ bool) (booted, error) {
	assign, err := x.assign(cs.Config.Count)
	if err != nil {
		return booted{}, err
	}
	dep := &engineRun{opts: x.opts, workers: cs.Config.Count, assign: assign}
	snap, fetch, err := x.opts.Manager.Load()
	switch {
	case err == nil:
		dep.snap = snap
		return booted{dep: dep, resume: snap.Superstep, fetch: fetch}, nil
	case errors.Is(err, engine.ErrNoCheckpoint):
		return booted{dep: dep}, nil
	}
	return booted{}, fmt.Errorf("runtime: checkpoint reload: %w", err)
}

func (x *inProcess) clear() error { return x.opts.Manager.Clear() }

// engineRun is one in-process deployment. Its snapshot is the live
// in-memory state, kept across segments while the driver keeps the
// deployment.
type engineRun struct {
	opts    *Options
	workers int
	assign  []int32
	snap    *engine.Snapshot // nil = start from the input graph
}

func (e *engineRun) close() { e.snap = nil }

// run executes one engine segment, resuming from the live snapshot.
// A segment that pauses at its boundary keeps the new snapshot live
// and, when asked, saves it through the checkpoint manager.
func (e *engineRun) run(ctx context.Context, seg segment, mon *monitor) outcome {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	mon.cancel = cancel
	mon.feed = make(chan struct{}, 1)

	start := 0
	if e.snap != nil {
		start = e.snap.Superstep
	}
	stopAfter := seg.steps
	if stopAfter >= e.opts.TotalSupersteps-start {
		stopAfter = 0 // run to completion
	}
	cfg := engine.Config{Workers: e.workers, Assign: e.assign, StopAfter: stopAfter,
		Canonical: e.opts.Canonical, Sink: mon}
	ch := make(chan engineResult, 1)
	snap := e.snap
	go func() {
		prog := e.opts.NewProgram()
		var r engineResult
		if snap == nil {
			r.res, r.err = engine.RunCtx(runCtx, e.opts.Graph, prog, cfg)
		} else {
			r.res, r.err = engine.ResumeCtx(runCtx, e.opts.Graph, prog, snap, cfg)
		}
		ch <- r
	}()
	r, wedged := e.await(ch, cancel, mon)

	out := outcome{err: r.err, wedged: wedged, steps: max(0, r.res.Stats.Supersteps-start),
		values: r.res.Values, stats: r.res.Stats}
	if errors.Is(r.err, engine.ErrPaused) {
		e.snap = r.res.Snapshot
		out.err, out.paused, out.at = nil, true, e.snap.Superstep
		if seg.save {
			out.save, out.saveErr = e.opts.Manager.Save(e.snap)
		}
	}
	return out
}

type engineResult struct {
	res engine.Result
	err error
}

// await waits for the engine goroutine under the wall-clock watchdog.
// It reports wedged=true when the watchdog — not the eviction
// schedule or the caller — cancelled the run.
func (e *engineRun) await(ch <-chan engineResult, cancel context.CancelFunc, mon *monitor) (engineResult, bool) {
	if e.opts.Watchdog <= 0 {
		return <-ch, false
	}
	for {
		timer := time.NewTimer(e.opts.Watchdog)
		select {
		case r := <-ch:
			timer.Stop()
			return r, false
		case <-mon.feed:
			timer.Stop() // superstep completed in time; re-arm
			continue
		case <-timer.C:
		}
		cancel()
		// Give the cancelled engine a grace period to unwind; a Compute
		// stuck past it is abandoned (its goroutine parks on the
		// buffered channel and is collected when it eventually returns).
		select {
		case r := <-ch:
			// A run that finished or paused while the watchdog fired is
			// sound: take the result.
			return r, r.err != nil && !errors.Is(r.err, engine.ErrPaused)
		case <-time.After(watchdogGrace):
			e.opts.Logf("runtime: job %q abandoned a wedged engine goroutine (watchdog %v, grace %v)",
				e.opts.Env.Job.Name, e.opts.Watchdog, watchdogGrace)
			return engineResult{err: engine.ErrInterrupted}, true
		}
	}
}
