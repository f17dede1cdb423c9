package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/cloud"
	"hourglass/internal/dist"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
	"hourglass/internal/partition"
	"hourglass/internal/runtime"
	"hourglass/internal/units"
)

// checkOutputs runs the workload's program through its public entry
// point, with the served configuration, and demands final values
// bit-identical to a canonical engine.Run. It runs outside the timed
// phase.
func checkOutputs(w workload, seed int64) error {
	switch w.backend {
	case "dist":
		return checkDist(w)
	case "engine":
		return checkEngine(w, seed)
	}
	return nil
}

// distProgram mirrors the DistBackend's kind → program map.
func distProgram(k hourglass.JobKind) dist.ProgramSpec {
	if k == hourglass.PageRank {
		return dist.ProgramSpec{Name: "pagerank", Iterations: 10}
	}
	return dist.ProgramSpec{Name: "wcc"}
}

func bitIdentical(label string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", label, len(got), len(want))
	}
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return fmt.Errorf("%s: vertex %d = %v, canonical engine.Run gives %v", label, v, got[v], want[v])
		}
	}
	return nil
}

// checkDist runs dist.ExecuteWithRecovery with the backend's shard
// count, checkpoint cadence, delta chain and kill.
func checkDist(w workload) error {
	gspec := dist.GraphSpec{Scale: w.scale, Seed: graphSeed, Undirected: true}
	g, err := gspec.Build()
	if err != nil {
		return err
	}
	pspec := distProgram(w.kind)
	prog, err := pspec.New()
	if err != nil {
		return err
	}
	ref, err := engine.Run(g, prog, engine.Config{Workers: 4, Canonical: true})
	if err != nil {
		return fmt.Errorf("canonical engine.Run: %w", err)
	}
	store := cloud.NewDatastore()
	cfg := dist.Config{
		Job:             "gate",
		Program:         pspec,
		Graph:           gspec,
		Canonical:       true,
		CheckpointEvery: 2,
		DeltaChain:      w.deltaChain,
		BarrierTimeout:  30 * time.Second,
		Store:           store,
	}
	var shardOpts func(attempt, shard int) dist.ShardOptions
	if w.killAt > 0 {
		shardOpts = func(attempt, shard int) dist.ShardOptions {
			opts := dist.ShardOptions{Store: store}
			if attempt == 0 && shard == 0 {
				opts.DieAtSuperstep = w.killAt
			}
			return opts
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	const shards = 4
	rep, restarts, err := dist.ExecuteWithRecovery(ctx, cfg, dist.FixedShards(shards), shards, shardOpts)
	if err != nil {
		return fmt.Errorf("dist.ExecuteWithRecovery: %w", err)
	}
	if wantRestarts := min(w.killAt, 1); restarts != wantRestarts {
		return fmt.Errorf("dist.ExecuteWithRecovery restarted %d times, want %d", restarts, wantRestarts)
	}
	return bitIdentical("dist "+pspec.Name, rep.Values, ref.Values)
}

// checkEngine runs runtime.Execute with the EngineBackend's options
// at a seeded trace offset.
func checkEngine(w workload, seed int64) error {
	sys, err := hourglass.New(hourglass.Options{Seed: marketSeed, TraceDays: 10})
	if err != nil {
		return err
	}
	env, err := sys.Env(w.kind)
	if err != nil {
		return err
	}
	prov, err := sys.Provisioner(w.kind, hourglass.StrategyHourglass)
	if err != nil {
		return err
	}
	p := graph.DefaultRMAT(w.scale, graphSeed)
	p.Undirected = true
	g := graph.RMAT(p)
	seen := map[int]bool{}
	var counts []int
	for i := range env.Stats {
		if n := env.Stats[i].Config.Count; !seen[n] {
			seen[n] = true
			counts = append(counts, n)
		}
	}
	part, err := micro.BuildForConfigs(g, partition.Hash{}, counts, partition.Multilevel{Seed: 1})
	if err != nil {
		return err
	}
	fresh := func() engine.Program { return &engine.PageRank{Iterations: 10} }
	ref, err := engine.Run(g, fresh(), engine.Config{Workers: 4, Canonical: true})
	if err != nil {
		return fmt.Errorf("canonical engine.Run: %w", err)
	}
	horizon, err := sys.Horizon(w.kind)
	if err != nil {
		return err
	}
	deadline, err := sys.DeadlineFor(w.kind, w.slack)
	if err != nil {
		return err
	}
	start := units.Seconds(float64(horizon) * rand.New(rand.NewSource(seed)).Float64())
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	rep, err := runtime.Execute(ctx, runtime.Options{
		Env:             env,
		Prov:            prov,
		Graph:           g,
		NewProgram:      fresh,
		Part:            part,
		Manager:         &engine.CheckpointManager{Store: cloud.NewDatastore(), Job: "gate"},
		TotalSupersteps: ref.Stats.Supersteps,
		CheckpointEvery: 2,
		RestartBudget:   8,
		Watchdog:        30 * time.Second,
		Canonical:       true,
		Logf:            func(string, ...any) {},
	}, start, start+deadline)
	if err != nil {
		return fmt.Errorf("runtime.Execute: %w", err)
	}
	if !rep.Finished {
		return errors.New("runtime.Execute did not finish")
	}
	return bitIdentical("runtime.Execute pagerank", rep.Values, ref.Values)
}

// checkFoldLane runs two jobs on a traced engine lane and checks the
// cost folds; untraced runs use it as their gate. It returns the
// lane's warm-up for the repeat check.
func checkFoldLane(w workload) (unit, []string) {
	l, _, warm, err := newLane(w, true)
	if err != nil {
		return unit{}, []string{fmt.Sprintf("fold gate set-up: %v", err)}
	}
	defer l.shutdown()
	return warm, checkFolds(w, l, []unit{warm, l.runUnit()})
}

// checkFolds demands, for every job of a traced engine lane, that
// obs.Summarize's cost plus the env's offline cost equals the
// controller's RunRecord.Cost bit for bit.
func checkFolds(w workload, l *lane, us []unit) []string {
	env, err := l.sys.Env(w.kind)
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	for _, u := range us {
		for _, r := range u.jobs {
			if !r.ran() || r.trace == nil {
				continue
			}
			cost, ok := l.recordedCost(r.id)
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: no run record", r.id))
				continue
			}
			events := make([]obs.Event, len(r.trace.events))
			for i, s := range r.trace.events {
				events[i] = s.ev
			}
			fold := obs.Summarize(events).CostUSD + float64(env.OfflineCost)
			if math.Float64bits(fold) != math.Float64bits(cost) {
				problems = append(problems, fmt.Sprintf("%s: trace folds to $%v, RunRecord.Cost is $%v", r.id, fold, cost))
			}
		}
	}
	return problems
}

// recordedCost waits briefly for the controller to file a finished
// job's RunRecord (it does so just after Run returns).
func (l *lane) recordedCost(id string) (float64, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if h, ok := l.ctrl.History(id); ok && len(h) > 0 {
			return h[0].Cost, true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(time.Millisecond)
	}
}

// checkUnits checks outcomes: on the admission stream, exactly the
// arrivals the generator marks infeasible must be rejected with
// InfeasibleError; every lane's warm-up ran the same inputs on a
// separately built stack, so their deterministic counts must agree;
// and dist jobs, all alike, must agree with each other.
func checkUnits(w workload, warm, timed []unit) []string {
	var problems []string
	for _, u := range append(append([]unit(nil), warm...), timed...) {
		for i, r := range u.jobs {
			if i >= len(u.infeasible) {
				break
			}
			var inf *admission.InfeasibleError
			if got := errors.As(r.submitErr, &inf); got != u.infeasible[i] {
				problems = append(problems, fmt.Sprintf("%s: InfeasibleError=%v, generator marked infeasible=%v", r.id, got, u.infeasible[i]))
			}
		}
	}
	for _, u := range warm[1:] {
		for i, r := range u.jobs {
			want, got := countsOf(warm[0].jobs[i]).String(), countsOf(r).String()
			if got != want {
				problems = append(problems, fmt.Sprintf("repeat: warm-up %s differs between lanes: %s vs %s", r.id, got, want))
			}
		}
	}
	if w.backend == "dist" {
		problems = append(problems, sameForEveryJob(timed, func(r *jobRec) string { return countsOf(r).String() })...)
	}
	if len(problems) > 10 {
		problems = append(problems[:10], fmt.Sprintf("... and %d more", len(problems)-10))
	}
	return problems
}

// sameForEveryJob: dist jobs all run the same program on the same
// graph, so their deterministic counts must not differ at all.
func sameForEveryJob(us []unit, counts func(*jobRec) string) []string {
	var first string
	for _, r := range jobsOf(us) {
		if r.failure() != nil {
			continue
		}
		c := counts(r)
		if first == "" {
			first = c
		} else if c != first {
			return []string{fmt.Sprintf("repeat: %s counts %s, first job %s", r.id, c, first)}
		}
	}
	return nil
}

// checkTraced runs the checks only a traced lane can: cost folds on
// the engine, and identical traced counts on every dist job.
func checkTraced(w workload, l *lane, us []unit) []string {
	switch w.backend {
	case "engine":
		return checkFolds(w, l, us)
	case "dist":
		return sameForEveryJob(us, func(r *jobRec) string { return tracedCountsOf(r).String() })
	}
	return nil
}

// jobCounts are the deterministic outcomes of one job.
type jobCounts struct {
	outcome                                      string
	finished, missed                             bool
	decisions, checkpoints, evictions, reconfigs int
	costBits                                     uint64
}

func (c jobCounts) String() string {
	return fmt.Sprintf("%s fin=%v miss=%v dec=%d ckpt=%d evict=%d reconf=%d cost=%016x",
		c.outcome, c.finished, c.missed, c.decisions, c.checkpoints, c.evictions, c.reconfigs, c.costBits)
}

func countsOf(r *jobRec) jobCounts {
	switch {
	case r.rejected():
		return jobCounts{outcome: "rejected"}
	case r.failure() != nil:
		return jobCounts{outcome: "failed"}
	}
	c := jobCounts{
		outcome:     "admitted",
		finished:    r.res.Finished,
		missed:      r.res.MissedDeadline,
		decisions:   r.res.Decisions,
		checkpoints: r.res.Checkpoints,
		evictions:   r.res.Evictions,
		reconfigs:   r.res.Reconfigs,
		costBits:    math.Float64bits(float64(r.res.Cost)),
	}
	if r.queued {
		c.outcome = "queued"
	}
	return c
}

// tracedCounts are the deterministic quantities only a trace shows.
// Wire traffic counts the final session alone: a killed session's
// counters stop at the kill, and where that lands against the frames
// still in flight is timing, not program behaviour.
type tracedCounts struct {
	supersteps             int
	wireFrames, wireBytes  int64
	ckptBytes              int64
	checkpoints, evictions int
}

func (c tracedCounts) String() string {
	return fmt.Sprintf("steps=%d frames=%d wire=%d ckptB=%d ckpts=%d shardevict=%d",
		c.supersteps, c.wireFrames, c.wireBytes, c.ckptBytes, c.checkpoints, c.evictions)
}

func tracedCountsOf(r *jobRec) tracedCounts {
	var c tracedCounts
	if r.trace == nil {
		return c
	}
	for _, s := range r.trace.events {
		switch s.ev.Type {
		case obs.EvSuperstep:
			c.supersteps++
			c.wireFrames += s.ev.WireFrames
			c.wireBytes += s.ev.WireBytes
		case obs.EvCheckpoint:
			c.checkpoints++
			c.ckptBytes += s.ev.WireBytes
		case obs.EvShardEvict:
			c.evictions++
			c.wireFrames, c.wireBytes = 0, 0
		}
	}
	return c
}

// putBytes is what a job wrote to the store; it repeats across runs,
// but not across jobs, whose key names differ in length.
func putBytes(r *jobRec) int64 {
	var n int64
	if r.trace != nil {
		for _, op := range r.trace.puts {
			n += int64(op.bytes)
		}
	}
	return n
}

// digestUnits lists each job's deterministic counts, in submit order.
func digestUnits(w workload, us []unit, traced bool) []string {
	var out []string
	for _, u := range us {
		for _, r := range u.jobs {
			d := countsOf(r).String()
			if traced && w.backend != "sim" {
				d += fmt.Sprintf(" %s putB=%d", tracedCountsOf(r), putBytes(r))
			}
			out = append(out, r.id+" "+d)
		}
	}
	return out
}

// compareDigests checks this run's per-job digests against the ones an
// earlier run with the same workload, seed and tracing left in dir,
// over the jobs both ran, then keeps the longer list.
func compareDigests(dir, name string, seed int64, traced bool, digests []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("repeat: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.txt", name, seed, traced))
	var prev []string
	if data, err := os.ReadFile(path); err == nil {
		prev = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("repeat: %w", err)
	}
	for i := 0; i < min(len(prev), len(digests)); i++ {
		if prev[i] != digests[i] {
			return fmt.Errorf("repeat: job %d of seed %d differs from an earlier run: %q vs %q", i+1, seed, digests[i], prev[i])
		}
	}
	if len(digests) <= len(prev) {
		return nil
	}
	if err := os.WriteFile(path, []byte(strings.Join(digests, "\n")+"\n"), 0o644); err != nil {
		return fmt.Errorf("repeat: %w", err)
	}
	return nil
}
