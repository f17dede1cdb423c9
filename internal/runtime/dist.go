// The dist executor. Worker sets come from a DistLauncher:
// LoopbackLauncher runs shards as goroutines in this process (unit
// tests, one-machine deployments), ProcessLauncher execs real
// hourglass-shard worker processes (integration; a killed process is
// indistinguishable from a spot eviction). An eviction cancels the
// session context, which unwinds the coordinator at its next barrier
// wait and every shard worker at its next frame wait or inbox drain.

package runtime

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"sync"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// WorkerSet is one booted set of shard workers. IDs are stable
// per-worker identities ("goroutine:0.2", "pid:4711") that the driver
// stamps into EvDeploy and EvShardEvict events, tying the virtual
// trajectory to real process lifecycles.
type WorkerSet struct {
	// IDs holds one identity per worker, indexed by shard id.
	IDs []string
	// Stop tears the set down and blocks until every worker has exited
	// (idempotent; cancelling the launch context also tears it down).
	Stop func()
}

// DistLauncher boots worker sets for the dist driver. Launch is called
// once per deployment with the coordinator address the workers must
// dial, the worker count this deployment runs at, and the 0-based
// deployment number (the chaos seam: tests key fault injection off
// attempt/shard). A non-empty prefetchJob marks a warm standby: its
// workers prefetch that job's newest checkpoint chain
// (dist.ShardOptions.PrefetchJob) while the doomed session still runs.
// Workers must exit when ctx is cancelled.
//
// DeathWarning forewarns scheduled worker deaths (a chaos -die-at
// injection, a cloud rebalance notice): it reports the absolute
// superstep a worker of deployment attempt dies in, 0 for none, so the
// driver arms a warm standby for real worker losses exactly like
// forecast market evictions.
type DistLauncher interface {
	Launch(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (*WorkerSet, error)
	DeathWarning(attempt int) int
}

// LoopbackLauncher runs shard workers as goroutines in this process,
// connected to the coordinator over loopback TCP — real wire frames
// and real checkpoint blobs, no process overhead.
type LoopbackLauncher struct {
	// Store holds the shards' checkpoint blobs (required; must be the
	// store the coordinator seals manifests in).
	Store cloud.BlobStore
	// ShardOpts, when non-nil, supplies per-shard options per
	// deployment — the chaos hooks. A zero Store inherits the
	// launcher's.
	ShardOpts func(attempt, shard int) dist.ShardOptions
	// Logf receives per-shard session diagnostics (nil = discard).
	Logf func(format string, args ...any)
	// DeathAt, when non-nil, forewarns the driver of scheduled worker
	// deaths (see DistLauncher.DeathWarning). Tests wire it to the same
	// schedule their ShardOpts chaos hook injects.
	DeathAt func(attempt int) int
}

// DeathWarning implements DistLauncher.
func (l *LoopbackLauncher) DeathWarning(attempt int) int {
	if l.DeathAt == nil {
		return 0
	}
	return l.DeathAt(attempt)
}

// Launch implements DistLauncher.
func (l *LoopbackLauncher) Launch(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (*WorkerSet, error) {
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	ws := &WorkerSet{IDs: make([]string, shards), Stop: func() { cancel(); wg.Wait() }}
	for i := 0; i < shards; i++ {
		opts := dist.ShardOptions{Store: l.Store}
		if l.ShardOpts != nil {
			opts = l.ShardOpts(attempt, i)
			if opts.Store == nil {
				opts.Store = l.Store
			}
		}
		if opts.PrefetchJob == "" {
			opts.PrefetchJob = prefetchJob
		}
		ws.IDs[i] = fmt.Sprintf("goroutine:%d.%d", attempt, i)
		// The worker announces its identity in the hello: the
		// coordinator assigns shard ids by accept order, so loss events
		// can only be attributed by the worker naming itself.
		if opts.Proc == "" {
			opts.Proc = ws.IDs[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Session errors surface coordinator-side (as shard loss);
			// the shard's own view is diagnostics only.
			if err := dist.Dial(wctx, addr, opts); err != nil && l.Logf != nil {
				l.Logf("runtime: loopback shard: %v", err)
			}
		}()
	}
	return ws, nil
}

// ProcessLauncher boots real hourglass-shard OS processes in -once
// mode, sharing checkpoints through a cloud.FSStore directory. Workers
// die with the launch context (SIGKILL via exec.CommandContext), so a
// cancelled or evicted segment leaves no process behind.
type ProcessLauncher struct {
	// Bin is the hourglass-shard binary path (required).
	Bin string
	// StoreDir is the checkpoint directory passed as -store; it must
	// back the same files as the driver's Store (required).
	StoreDir string
	// ExtraArgs, when non-nil, appends per-worker flags — the chaos
	// seam for -die-at style fault injection.
	ExtraArgs func(attempt, shard int) []string
}

// DeathWarning implements DistLauncher: process deaths are unannounced.
func (l *ProcessLauncher) DeathWarning(int) int { return 0 }

// Launch implements DistLauncher: standby workers get -prefetch-job so
// they warm their blob cache before the handshake.
func (l *ProcessLauncher) Launch(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (*WorkerSet, error) {
	var cmds []*exec.Cmd
	ws := &WorkerSet{Stop: func() {
		for _, c := range cmds {
			_ = c.Process.Kill()
		}
		for _, c := range cmds {
			// A torn-down or chaos-killed -once worker exits nonzero by
			// design; all the driver needs is that it is gone.
			_ = c.Wait()
		}
	}}
	for i := 0; i < shards; i++ {
		args := []string{"-coordinator", addr, "-store", l.StoreDir, "-once"}
		if prefetchJob != "" {
			args = append(args, "-prefetch-job", prefetchJob)
		}
		if l.ExtraArgs != nil {
			args = append(args, l.ExtraArgs(attempt, i)...)
		}
		cmd := exec.CommandContext(ctx, l.Bin, args...)
		if err := cmd.Start(); err != nil {
			ws.Stop()
			return nil, fmt.Errorf("runtime: starting shard process %d of %d: %w", i, shards, err)
		}
		cmds = append(cmds, cmd)
		ws.IDs = append(ws.IDs, fmt.Sprintf("pid:%d", cmd.Process.Pid))
	}
	return ws, nil
}

// DistOptions configures one runtime-driven distributed execution.
type DistOptions struct {
	// Env supplies the configuration set, market, eviction traces and
	// per-config stats (required). A decision's Config.Count is the
	// worker count its process set boots with.
	Env *core.Env
	// Prov decides the configuration after every eviction and loss
	// (required).
	Prov core.Provisioner
	// Program and Graph are the specs every process instantiates
	// (required: Program.Name non-empty).
	Program dist.ProgramSpec
	Graph   dist.GraphSpec
	// Store holds per-shard checkpoint blobs and manifests (required).
	// It must be reachable by every worker the Launcher boots, and the
	// Job namespace must be clean at the first deployment — a stale
	// checkpoint there would be resumed from.
	Store cloud.BlobStore
	// Job namespaces the checkpoint keys in Store (required).
	Job string
	// Launcher boots the worker sets (required).
	Launcher DistLauncher
	// TotalSupersteps is the expected superstep count of an
	// uninterrupted run — the denominator of the work-left model
	// (required > 0).
	TotalSupersteps int

	// CheckpointEvery is the dist checkpoint interval in supersteps
	// (0 = 2). The dist plane always checkpoints: the process set is
	// the only holder of in-memory state, so a provisioner decision
	// without durability would make every loss a restart from scratch.
	CheckpointEvery int
	// WarningWindow is the eviction advance notice: the driver learns
	// of an upcoming eviction (or scheduled worker death, see
	// DistLauncher) WarningWindow virtual seconds early, arms a warm
	// standby cluster that boots and prefetches concurrently with the
	// doomed session, and — when the window fits a checkpoint save —
	// forces one final checkpoint at the eviction boundary so the
	// standby resumes within one superstep of it. 0 disables warm
	// standby (pure reactive recovery).
	WarningWindow units.Seconds
	// DeltaChain bounds the dist checkpoint delta chain: up to
	// DeltaChain consecutive delta checkpoints follow each full one
	// (0 = every checkpoint full).
	DeltaChain int
	// RestartBudget bounds evictions + losses before the driver pins
	// the last-resort configuration (0 = 8).
	RestartBudget int
	// BarrierTimeout is the coordinator's watchdog window; ctx
	// cancellation also resolves within it (0 = the dist default).
	BarrierTimeout time.Duration
	// Sink receives the structured event stream; EvDeploy and
	// EvShardEvict carry worker process identity in Proc. Nil disables
	// tracing.
	Sink obs.Sink
	// Logf receives non-fatal diagnostics (nil = standard logger for
	// the driver; dist sessions stay silent).
	Logf func(format string, args ...any)
}

func (o *DistOptions) validate() error {
	switch {
	case o.Program.Name == "":
		return errors.New("runtime: empty Program.Name")
	case o.Store == nil:
		return errors.New("runtime: nil Store")
	case o.Job == "":
		return errors.New("runtime: empty Job")
	case o.Launcher == nil:
		return errors.New("runtime: nil Launcher")
	}
	return nil
}

// ExecuteDist drives the distributed program to completion under
// injected evictions and real worker losses, starting at virtual time
// start with an absolute deadline. Cancelling ctx stops the live
// cluster — coordinator and every worker — within BarrierTimeout. The
// returned Report is meaningful even alongside an error: it carries
// the spend, I/O and deployment history accumulated before the
// failure.
func ExecuteDist(ctx context.Context, opts DistOptions, start, deadline units.Seconds) (Report, error) {
	if err := opts.validate(); err != nil {
		return Report{}, err
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 2
	}
	return drive(ctx, config{env: opts.Env, prov: opts.Prov, total: opts.TotalSupersteps,
		restartBudget: opts.RestartBudget, warning: opts.WarningWindow, cadence: opts.CheckpointEvery,
		sink: opts.Sink, logf: opts.Logf}, &distributed{opts: &opts}, start, deadline)
}

// distributed is the dist executor: deployments are worker sets
// booted through the launcher, each serving one coordinator session.
type distributed struct{ opts *DistOptions }

// plan runs the rest of the job: sessions checkpoint on their own
// cadence, so the driver never stops them at a boundary or bills a
// save.
func (x *distributed) plan(_ core.Decision, _ *core.ConfigStats, _ units.Seconds, done int) segment {
	return segment{steps: max(1, x.opts.TotalSupersteps-done)}
}

// shares splits the vertices round-robin, as the dist plane assigns
// them, so the per-worker flows are even to within one vertex.
func (x *distributed) shares(n int) ([]int64, error) {
	vertices := int64(1) << x.opts.Graph.Scale
	out := make([]int64, n)
	for w := range out {
		out[w] = vertices / int64(n)
		if int64(w) < vertices%int64(n) {
			out[w]++
		}
	}
	return out, nil
}

// boot opens the coordinator listener and launches the worker set,
// tied to the run context until the deployment closes. A standby set
// prefetches the job's newest checkpoint chain while it waits. The
// checkpoint itself is read inside the session, so the boot reports
// no resume point or fetch time.
func (x *distributed) boot(ctx context.Context, cs *core.ConfigStats, attempt int, standby bool) (booted, error) {
	n := cs.Config.Count
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return booted{}, fmt.Errorf("runtime: dist coordinator listener: %w", err)
	}
	wctx, cancel := context.WithCancel(ctx)
	prefetch := ""
	if standby {
		prefetch = x.opts.Job
	}
	ws, err := x.opts.Launcher.Launch(wctx, ln.Addr().String(), n, attempt, prefetch)
	if err != nil {
		cancel()
		ln.Close()
		return booted{}, fmt.Errorf("runtime: launching %d workers: %w", n, err)
	}
	return booted{dep: &cluster{opts: x.opts, shards: n, ln: ln, ws: ws, cancel: cancel},
		procs: strings.Join(ws.IDs, ","), dieAt: x.opts.Launcher.DeathWarning(attempt),
		stampReady: true}, nil
}

func (x *distributed) clear() error { return dist.ClearJob(x.opts.Store, x.opts.Job) }

// cluster is one booted dist deployment: a coordinator listener and
// the worker set dialing it.
type cluster struct {
	opts   *DistOptions
	shards int
	ln     net.Listener
	ws     *WorkerSet
	cancel context.CancelFunc
}

// run runs one coordinator session over the set. Whatever the
// outcome, the set is torn down and waited for before returning: the
// next deployment must never race a straggler from this one. The
// session runs to the end of the job, so no deployment survives a
// decision point: KeepCurrent has nothing to keep, and every decision
// is a fresh boot billed like one.
func (s *cluster) run(ctx context.Context, seg segment, mon *monitor) outcome {
	defer s.close()
	sessCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	mon.cancel = cancel
	o := s.opts
	rep, err := dist.AcceptAndRun(sessCtx, s.ln, s.shards, dist.Config{
		Job:               o.Job,
		Program:           o.Program,
		Graph:             o.Graph,
		Canonical:         true,
		CheckpointEvery:   o.CheckpointEvery,
		DeltaChain:        o.DeltaChain,
		ForceCheckpointAt: seg.forceAt,
		BarrierTimeout:    o.BarrierTimeout,
		Store:             o.Store,
		Sink:              mon,
		Logf:              o.Logf,
	})
	var lost *dist.ShardLostError
	out := outcome{err: err, steps: mon.read().steps, lost: errors.As(err, &lost)}
	if err == nil {
		out.values, out.stats = rep.Values, rep.Stats
	}
	return out
}

func (s *cluster) close() {
	s.ln.Close() // resets connections no session accepted
	s.cancel()
	s.ws.Stop()
}
