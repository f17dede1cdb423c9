// Package runtime is the eviction-aware execution driver: it runs real
// graph programs under the seeded eviction process the trace-driven
// simulator (internal/sim) replays, closing the loop the paper defends
// end-to-end (§1, Figure 2) — eviction → re-provision → re-partition →
// resume at a different worker count → deadline met.
//
// One lifecycle driver runs over two executors. The driver owns the
// virtual clock, every provisioner consultation (and the §5
// last-resort fallback once slack or the restart budget runs out),
// deploy billing, the eviction horizon, eviction, checkpoint and
// finish accounting, warm standbys and every lifecycle event. Every
// deploy after the first is a reload: a resume is priced as a parallel
// reload by internal/simnet, and the deploy's wait + boot + load span
// is recovery downtime (Report.RecoveryTime). An executor only boots
// deployments and runs segments on them:
//
//   - Execute runs engine.Programs in process. A deployment reloads
//     the newest valid checkpoint through engine.CheckpointManager and
//     re-clusters the micro-partitions for its worker count; segments
//     stop at every checkpoint boundary the provisioner asks for,
//     where the driver bills the save, and the live in-memory state
//     survives a decision that keeps the deployment.
//   - ExecuteDist runs worker sets of the multi-process BSP engine
//     (internal/dist). A deployment is a fresh process set that
//     resumes from the per-shard checkpoint blobs at its own shard
//     count; its session runs to the end of the job and seals
//     checkpoints on its own cadence, so nothing survives an eviction.
//
// Time is split across two clocks. Compute, boot, load and save are
// *virtual* seconds priced by the perfmodel/market, so a multi-hour
// execution drives real supersteps yet accounts like the simulator.
// The in-process watchdog alone is *wall-clock*: it bounds how long a
// superstep may take for real, so a wedged Compute degrades to
// reload-and-reprovision instead of hanging the driver.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"sync"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/obs"
	"hourglass/internal/sim"
	"hourglass/internal/simnet"
	"hourglass/internal/units"
)

// Report is the outcome of one eviction-aware execution.
type Report struct {
	// Values are the final vertex values (nil when the run did not
	// finish).
	Values []float64
	// Stats are the engine stats of the final segment.
	Stats engine.Stats
	// Cost is the accumulated machine spend (virtual market pricing).
	Cost units.USD
	// Finished reports whether the job produced output.
	Finished bool
	// MissedDeadline is Finished && Completion > deadline.
	MissedDeadline bool
	// Completion is the absolute virtual finish time.
	Completion units.Seconds
	// IOTime totals checkpoint save/load plus simnet reload seconds.
	IOTime units.Seconds
	// RecoveryTime totals the span of every reload deploy (see the
	// package comment). Warm cutovers contribute zero — their boot and
	// prefetch overlapped the warning window — so on a fixed trace warm
	// recovery is strictly cheaper than cold whenever a cutover lands.
	RecoveryTime units.Seconds

	Evictions     int  // injected evictions and worker losses suffered
	Reconfigs     int  // deployments (first boot included)
	Checkpoints   int  // durable checkpoints completed
	Decisions     int  // provisioner consultations
	Restarts      int  // evictions + losses + watchdog trips that forced a reload
	WatchdogTrips int  // wall-clock watchdog firings
	Warnings      int  // eviction warnings fired (ExecuteDist with WarningWindow > 0)
	WarmCutovers  int  // evictions absorbed by a ready warm standby
	StandbyMisses int  // standbys armed or booted that never cut over
	LastResort    bool // the last-resort fallback was engaged

	// ShardCounts is the worker count of every deployment in boot
	// order; a re-provision after an eviction may change the count
	// mid-trajectory.
	ShardCounts []int
}

const (
	// maxDecisions guards against a provisioner livelock.
	maxDecisions = 10_000
	// bytesPerVertex sizes the parallel checkpoint reload flows.
	bytesPerVertex = 64
	// defaultRestartBudget bounds evictions, losses and watchdog trips
	// before the driver pins the last-resort configuration.
	defaultRestartBudget = 8
)

// executor is the execution substrate beneath the lifecycle driver.
// The ways the two substrates model a run differently travel as the
// data these methods return, not as branches in the driver.
type executor interface {
	// plan bounds the next segment of a job at superstep done on cs:
	// how many supersteps it may run, and whether it stops there for a
	// checkpoint the driver bills.
	plan(dec core.Decision, cs *core.ConfigStats, secPerStep units.Seconds, done int) segment
	// shares returns how many vertices each of n workers reloads from
	// a checkpoint.
	shares(n int) ([]int64, error)
	// boot brings up a deployment of cs. attempt numbers deployments
	// from 0; standby marks a warm standby booted ahead of an eviction.
	boot(ctx context.Context, cs *core.ConfigStats, attempt int, standby bool) (booted, error)
	// clear removes the job's checkpoints once its output is durable.
	clear() error
}

// booted is a fresh deployment and what its boot found.
type booted struct {
	dep    deployment
	resume int           // superstep of the checkpoint the boot reloaded (0 = none or unknown)
	fetch  units.Seconds // checkpoint download time spent by the boot
	procs  string        // worker identities, stamped into EvDeploy
	dieAt  int           // superstep a worker is forewarned to die in (0 = none)
	// stampReady dates EvDeploy at the compute-ready instant (a worker
	// set announces itself by serving) instead of the deploy start.
	stampReady bool
}

// deployment is one booted worker set.
type deployment interface {
	// run executes one segment, feeding every superstep and checkpoint
	// event through mon, which may cancel it.
	run(ctx context.Context, seg segment, mon *monitor) outcome
	// close tears the deployment down and drops its in-memory state
	// (idempotent).
	close()
}

// segment is one run request.
type segment struct {
	steps   int  // supersteps to run at most
	save    bool // checkpoint at the stop boundary
	forceAt int  // absolute superstep of a forced in-window checkpoint (0 = none)
}

// outcome is how a segment ended.
type outcome struct {
	err    error // nil when the job finished or the segment paused
	steps  int   // supersteps completed this segment
	paused bool  // stopped at the planned boundary; the state is live at superstep at
	at     int
	wedged bool // the wall-clock watchdog cancelled the segment
	lost   bool // a worker died

	values []float64
	stats  engine.Stats

	save    units.Seconds // I/O time of the boundary save, billed even when it failed
	saveErr error
}

// config is what the driver needs from Options or DistOptions.
type config struct {
	env           *core.Env
	prov          core.Provisioner
	total         int           // expected supersteps of an uninterrupted run
	restartBudget int           // 0 = defaultRestartBudget
	warning       units.Seconds // eviction advance notice (0 = no warm standby)
	cadence       int           // checkpoint interval of self-checkpointing segments (0 = none)
	sink          obs.Sink
	logf          func(format string, args ...any)
}

// driver carries the mutable state of one execution.
type driver struct {
	cfg      config
	exec     executor
	evictor  sim.Evictor
	deadline units.Seconds
	rep      Report

	t      units.Seconds     // virtual clock
	cur    *core.ConfigStats // live deployment (nil = none)
	live   booted            // its deployment
	bootAt units.Seconds     // uptime anchor of cur
	// done is the superstep the live state holds; durable is the
	// newest checkpoint segments sealed themselves. Progress survives a
	// lost deployment only up to durable.
	done, durable int

	// pending is a warm standby adopted at the last eviction: the next
	// iteration runs on it instead of deciding and deploying afresh.
	pending *standby
}

// drive runs the lifecycle loop to completion, starting at virtual
// time start with an absolute deadline. The returned Report is
// meaningful even alongside an error: it carries the spend, I/O and
// deployment history accumulated before the failure.
func drive(ctx context.Context, cfg config, exec executor, start, deadline units.Seconds) (Report, error) {
	switch {
	case cfg.env == nil:
		return Report{}, errors.New("runtime: nil Env")
	case cfg.prov == nil:
		return Report{}, errors.New("runtime: nil Prov")
	case cfg.total <= 0:
		return Report{}, fmt.Errorf("runtime: TotalSupersteps = %d", cfg.total)
	}
	if cfg.restartBudget <= 0 {
		cfg.restartBudget = defaultRestartBudget
	}
	if cfg.logf == nil {
		cfg.logf = log.Printf
	}
	d := &driver{cfg: cfg, exec: exec, evictor: sim.Evictor{Market: cfg.env.Market},
		deadline: deadline, t: start}
	defer func() {
		// Tear down whatever is still booted when the run returns.
		d.drop()
		d.teardownStandby(d.pending)
	}()
	for {
		if err := ctx.Err(); err != nil {
			return d.rep, fmt.Errorf("runtime: cancelled after %d decisions: %w", d.rep.Decisions, err)
		}
		var dec core.Decision
		var cs *core.ConfigStats
		if sb := d.pending; sb != nil {
			// Warm cutover: the decision was made (and counted) at the
			// warning, the set is booted and prefetched.
			d.pending = nil
			cs = sb.cs
			d.start(sb.booted, cs, d.t)
		} else {
			d.rep.Decisions++
			st := core.State{Now: d.t, WorkLeft: d.workLeft(d.progress()), Deadline: d.deadline}
			if d.cur != nil {
				st.Current, st.Uptime = &d.cur.Config, d.t-d.bootAt
			}
			var err error
			if dec, cs, err = d.decide(st); err != nil {
				return d.rep, err
			}
			if d.cur == nil || !dec.KeepCurrent || d.cur.Config.ID() != cs.Config.ID() {
				if err := d.deploy(ctx, cs); err != nil {
					return d.rep, err
				}
			}
		}
		if d.rep.Decisions > maxDecisions {
			return d.rep, fmt.Errorf("runtime: exceeded %d decisions (provisioner livelock?)", maxDecisions)
		}
		// A kept deployment refreshes its eviction forecast too: prices
		// moved on.
		finished, err := d.runSegment(ctx, dec, cs, d.evictor.Next(cs.Config, d.t))
		if err != nil || finished {
			return d.rep, err
		}
	}
}

func (d *driver) emit(e obs.Event) {
	if d.cfg.sink != nil {
		e.Job = d.cfg.env.Job.Name
		d.cfg.sink.Emit(e)
	}
}

// spend bills a machine-time interval on the market and emits the
// matching EvSpend, in accumulation order so obs.Summarize folds the
// trace back to rep.Cost bit-exactly.
func (d *driver) spend(c cloud.Config, from, to units.Seconds) error {
	cost, err := d.cfg.env.Market.Cost(c, from, to)
	if err != nil {
		return err
	}
	d.rep.Cost += cost
	if d.cfg.sink != nil {
		d.cfg.sink.Emit(obs.Event{Type: obs.EvSpend, T: float64(from),
			Config: c.ID(), USD: float64(cost)})
	}
	return nil
}

// progress is the superstep the job resumes from: the live state, or
// the durable frontier once the live state is gone.
func (d *driver) progress() int { return max(d.done, d.durable) }

// workLeft maps completed supersteps to the w(t) ∈ (0,1] fraction the
// provisioner consumes, clamped above zero so a job that outlives its
// superstep estimate still registers as unfinished.
func (d *driver) workLeft(doneSteps int) float64 {
	total := float64(d.cfg.total)
	return max(float64(d.cfg.total-doneSteps)/total, 0.5/total)
}

// decide consults the provisioner — or, once the restart budget is
// spent or slack has run dry, pins the deterministic last-resort
// on-demand configuration with checkpointing off (the §5 fallback: a
// fresh LRC deployment finishes within the remaining horizon by
// construction, so nothing may preempt it again).
func (d *driver) decide(st core.State) (core.Decision, *core.ConfigStats, error) {
	env := d.cfg.env
	if d.rep.Restarts < d.cfg.restartBudget && env.Slack(st) > 0 {
		return sim.Decide(env, d.cfg.prov, st, d.cfg.sink)
	}
	if !d.rep.LastResort {
		d.rep.LastResort = true
		d.cfg.logf("runtime: job %q engaging last-resort %s (restarts=%d/%d, slack=%.0fs)",
			env.Job.Name, env.LRC.Config.ID(), d.rep.Restarts, d.cfg.restartBudget, float64(env.Slack(st)))
	}
	dec := core.Decision{
		Config:       env.LRC.Config,
		KeepCurrent:  st.Current != nil && st.Current.ID() == env.LRC.Config.ID(),
		ExpectedCost: env.LRCFinishCost(st.WorkLeft),
	}
	d.emit(obs.Event{Type: obs.EvDecision, T: float64(st.Now),
		Config:     dec.Config.ID(),
		ECUSD:      obs.Finite(float64(dec.ExpectedCost)),
		SlackSec:   obs.Finite(float64(env.Slack(st))),
		WorkLeft:   st.WorkLeft,
		Keep:       dec.KeepCurrent,
		LastResort: true,
	})
	return dec, &env.LRC, nil
}

// deploy tears down the live deployment (in-memory progress is lost),
// waits for market availability, boots cs — which reloads the newest
// durable checkpoint — and bills wait + boot + load.
func (d *driver) deploy(ctx context.Context, cs *core.ConfigStats) error {
	d.drop()
	avail, err := d.cfg.env.Market.NextAvailable(cs.Config, d.t)
	if err != nil {
		return err
	}
	b, err := d.exec.boot(ctx, cs, d.rep.Reconfigs, false)
	if err != nil {
		return err
	}
	ioLoad := d.loadTime(cs, max(b.resume, d.durable), b.fetch)
	d.rep.IOTime += ioLoad
	readyAt := avail + cs.Boot + ioLoad
	if err := d.spend(cs.Config, avail, readyAt); err != nil {
		b.dep.close()
		return err
	}
	d.start(b, cs, readyAt)
	return nil
}

// start makes b the live deployment, compute-ready at readyAt. Every
// deploy after the first is a reload, and its span is recovery
// downtime.
func (d *driver) start(b booted, cs *core.ConfigStats, readyAt units.Seconds) {
	d.rep.Reconfigs++
	d.rep.ShardCounts = append(d.rep.ShardCounts, cs.Config.Count)
	d.done = b.resume
	span := readyAt - d.t
	reload := d.rep.Reconfigs > 1
	if reload {
		d.rep.RecoveryTime += span
	}
	at := d.t
	if b.stampReady {
		at = readyAt
	}
	d.emit(obs.Event{Type: obs.EvDeploy, T: float64(at), Config: cs.Config.ID(),
		WorkLeft: d.workLeft(d.progress()), DurSec: float64(span), Proc: b.procs, Reload: reload})
	d.t, d.bootAt = readyAt, readyAt
	d.cur, d.live = cs, b
}

// drop tears the live deployment down; progress falls back to the
// durable frontier.
func (d *driver) drop() {
	if d.live.dep != nil {
		d.live.dep.close()
	}
	d.cur, d.live = nil, booted{}
	d.done = d.durable
}

// loadTime prices bringing a fresh deployment of cs to superstep
// resume: the profiled input load on a fresh start; on a resume, the
// checkpoint fetch plus the §6 fast reload, where every worker pulls
// its share of the checkpoint from the datastore in parallel.
func (d *driver) loadTime(cs *core.ConfigStats, resume int, fetch units.Seconds) units.Seconds {
	if resume == 0 {
		return cs.Load
	}
	workers := cs.Config.Count
	shares, err := d.exec.shares(workers)
	if err == nil {
		var cluster *simnet.Cluster
		if cluster, err = simnet.NewCluster(workers, simnet.DefaultConfig()); err == nil {
			flows := make([]simnet.Flow, 0, workers)
			for w, vertices := range shares {
				flows = append(flows, simnet.Flow{Src: simnet.DatastoreNode, Dst: w,
					Bytes: vertices * bytesPerVertex})
			}
			return fetch + cluster.SimulateFlows(flows)
		}
	}
	d.cfg.logf("runtime: reload pricing: %v", err)
	return fetch
}

// runSegment runs one segment on the live deployment and folds its
// outcome into the report. It returns finished=true when the job
// produced its output.
func (d *driver) runSegment(ctx context.Context, dec core.Decision, cs *core.ConfigStats, nextEvict units.Seconds) (finished bool, err error) {
	secPerStep := units.Seconds(float64(cs.Exec) / float64(d.cfg.total))
	seg := d.exec.plan(dec, cs, secPerStep, d.progress())

	// How many supersteps fit before the eviction lands?
	stepsToEvict := math.MaxInt
	if !math.IsInf(float64(nextEvict), 1) {
		if ratio := float64(nextEvict-d.t) / float64(secPerStep); ratio < 1e12 {
			stepsToEvict = int(ratio)
		}
	}
	if stepsToEvict <= 0 {
		return false, d.lose(cs, nextEvict)
	}
	mon := &monitor{forward: d.cfg.sink}
	if stepsToEvict < seg.steps {
		mon.evictAfter = stepsToEvict
	}
	sb := d.armStandby(ctx, mon, &seg, cs, secPerStep, nextEvict)

	out := d.live.dep.run(ctx, seg, mon)
	seen := mon.read()
	if sb != nil && seen.warned {
		// The standby orchestration ran concurrently with the segment;
		// join it before touching the report.
		<-sb.done
	} else {
		sb = nil
	}
	d.rep.Checkpoints += seen.checkpoints
	d.durable = max(d.durable, seen.durable)
	segEnd := d.t + units.Seconds(float64(out.steps)*float64(secPerStep))

	evictedAt := units.Seconds(-1)
	switch {
	case out.err == nil && out.paused:
		evictedAt, err = d.pause(out, cs, seg.save, segEnd, nextEvict)
	case out.err == nil:
		evictedAt, err = d.finish(out, cs, segEnd, nextEvict)
		finished = err == nil && evictedAt < 0
	case ctx.Err() != nil:
		err = fmt.Errorf("runtime: cancelled mid-segment: %w", ctx.Err())
	case out.wedged:
		// Watchdog: charge the supersteps that did complete, then tear
		// down and reprovision from the last durable checkpoint.
		d.rep.WatchdogTrips++
		if err = d.spend(cs.Config, d.t, segEnd); err == nil {
			d.cfg.logf("runtime: job %q watchdog tripped on %s after superstep %d; redeploying",
				d.cfg.env.Job.Name, cs.Config.ID(), out.stats.Supersteps)
			d.t = segEnd
			d.rep.Restarts++
			d.drop()
		}
	case seen.evicted:
		// Injected eviction: the machines ran (and are billed) up to the
		// price crossing; progress past the durable frontier is gone.
		evictedAt, err = nextEvict, d.lose(cs, nextEvict)
	case out.lost:
		// A worker actually died: bill the supersteps that did complete.
		// The next decision is free to pick a different worker count.
		evictedAt, err = segEnd, d.lose(cs, segEnd)
	default:
		err = out.err
	}
	switch {
	case err != nil:
		d.teardownStandby(sb)
		return false, err
	case evictedAt >= 0:
		// A ready standby takes over at the eviction instant.
		return false, d.settleStandby(sb, evictedAt)
	}
	// The job finished or paused under the doomed deployment after all:
	// the standby was insurance that never paid out.
	return finished, d.discardStandby(sb, d.t)
}

// lose bills the live deployment up to its eviction at `at` and
// records the eviction.
func (d *driver) lose(cs *core.ConfigStats, at units.Seconds) error {
	if err := d.spend(cs.Config, d.t, at); err != nil {
		return err
	}
	d.t = at
	d.rep.Evictions++
	d.rep.Restarts++
	d.emit(obs.Event{Type: obs.EvEvict, T: float64(at), Config: cs.Config.ID(),
		WorkLeft: d.workLeft(d.progress())})
	d.drop()
	return nil
}

// pause handles a segment that stopped at its planned boundary: bill
// the compute and then the save, racing the eviction. A save that
// fails (store faults) keeps the in-memory state and the old durable
// frontier; a save interrupted by the eviction loses both. It returns
// the eviction instant when one landed (else -1).
func (d *driver) pause(out outcome, cs *core.ConfigStats, saved bool, segEnd, nextEvict units.Seconds) (units.Seconds, error) {
	d.rep.IOTime += out.save
	end := segEnd + out.save
	if saved && nextEvict < end {
		// Evicted mid-save: billed only up to the price crossing, the
		// checkpoint does not advance the durable frontier, and the
		// in-memory state is gone with the machines. (The blob may still
		// have landed; if a later reload finds it, all downstream
		// accounting derives from the actually-loaded superstep, so the
		// trajectory stays internally consistent — the race only ever
		// under-promises progress.)
		return nextEvict, d.lose(cs, nextEvict)
	}
	if err := d.spend(cs.Config, d.t, end); err != nil {
		return -1, err
	}
	d.t = end
	d.done = out.at
	switch {
	case !saved:
		// The provisioner bounded the interval (MaxRun) without asking
		// for durability: go back for a decision on the live state.
	case out.saveErr != nil:
		// Partial progress is billed (the failed uploads and backoff are
		// in the save time) but the durable frontier stays put: a later
		// eviction rolls back further.
		d.cfg.logf("runtime: job %q checkpoint at superstep %d failed: %v",
			d.cfg.env.Job.Name, out.at, out.saveErr)
	default:
		d.rep.Checkpoints++
		d.emit(obs.Event{Type: obs.EvCheckpoint, T: float64(d.t), Config: cs.Config.ID(),
			WorkLeft: d.workLeft(out.at)})
	}
	return -1, nil
}

// finish handles a segment that completed the job: bill the compute
// and the output write (racing the eviction), clear the checkpoint
// namespace and report. It returns the eviction instant when the
// eviction won the race (else -1).
func (d *driver) finish(out outcome, cs *core.ConfigStats, segEnd, nextEvict units.Seconds) (units.Seconds, error) {
	outEnd := segEnd + cs.Save
	if nextEvict < outEnd {
		// Evicted computing the tail or writing the output: the result
		// never became durable.
		return nextEvict, d.lose(cs, nextEvict)
	}
	if err := d.spend(cs.Config, d.t, outEnd); err != nil {
		return -1, err
	}
	d.t = outEnd
	if err := d.exec.clear(); err != nil {
		d.cfg.logf("runtime: checkpoint GC for job %q incomplete: %v", d.cfg.env.Job.Name, err)
	}
	d.rep.Values = out.values
	d.rep.Stats = out.stats
	d.rep.Finished = true
	d.rep.Completion = d.t
	d.rep.MissedDeadline = d.t > d.deadline
	d.emit(obs.Event{Type: obs.EvDone, T: float64(d.t), Config: cs.Config.ID(), Done: true,
		Missed: d.rep.MissedDeadline, USD: float64(d.rep.Cost)})
	return -1, nil
}

// monitor is the sink of one segment: it forwards every event, counts
// supersteps and sealed checkpoints, beats the watchdog, fires the
// eviction warning, and cancels the segment at the injected eviction
// boundary. Engines and coordinators emit EvSuperstep synchronously at
// the superstep barrier — a coordinator before sealing that boundary's
// checkpoint — so "evict after N supersteps" is deterministic: the
// segment stops before superstep N+1, and a checkpoint at N never
// becomes durable, exactly a machine-set loss at that instant.
//
// In warm mode (warmBoundary > 0, set when the warning window fits one
// final save) the cancellation moves to the EvCheckpoint emitted after
// the forced boundary checkpoint seals: the segment still stops before
// superstep N+1 starts, but the boundary's state is durable — the
// in-window save. If that save never seals, the EvSuperstep for N+1 is
// the safety net.
type monitor struct {
	forward      obs.Sink
	cancel       context.CancelFunc // set by the deployment before the segment starts
	evictAfter   int                // cancel after this many supersteps (0 = never)
	warmBoundary int                // absolute superstep of the forced in-window save (0 = reactive)
	warnAfter    int                // fire onWarn after this many supersteps (0 = never)
	onWarn       func()             // must not block: spawn, don't orchestrate
	feed         chan struct{}      // watchdog heartbeat (nil = none)

	mu sync.Mutex
	c  counters
}

// counters is what a monitor has seen of its segment.
type counters struct {
	steps       int // supersteps completed
	durable     int // newest checkpoint sealed
	checkpoints int
	evicted     bool // cancelled at the injected eviction boundary
	warned      bool // the eviction warning fired
}

func (m *monitor) Emit(e obs.Event) {
	if m.forward != nil {
		m.forward.Emit(e)
	}
	var trip, warn bool
	m.mu.Lock()
	c := &m.c
	switch e.Type {
	case obs.EvSuperstep:
		select {
		case m.feed <- struct{}{}:
		default:
		}
		c.steps++
		limit := m.evictAfter
		if m.warmBoundary > 0 {
			limit++
		}
		trip = m.evictAfter > 0 && c.steps >= limit && !c.evicted
		warn = m.warnAfter > 0 && c.steps >= m.warnAfter && !c.warned
		c.warned = c.warned || warn
	case obs.EvCheckpoint:
		c.durable = max(c.durable, e.Superstep)
		c.checkpoints++
		trip = m.warmBoundary > 0 && e.Superstep >= m.warmBoundary && !c.evicted
	}
	c.evicted = c.evicted || trip
	m.mu.Unlock()
	if warn && m.onWarn != nil {
		m.onWarn()
	}
	if trip {
		m.cancel()
	}
}

// read returns the monitor's counters so far.
func (m *monitor) read() counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c
}
