package runtime_test

// The lifecycle trace guard: one SHA-256 per driver-owned event type,
// folded over seeded Execute and ExecuteDist runs in emission order.
// It pins the decide → deploy → bill → evict → checkpoint → done
// trajectory of both entry points, so a refactor of the lifecycle
// driver that changes any decision, charge, timestamp or counter
// shows up as a digest mismatch naming the event type.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/faultinject"
	"hourglass/internal/obs"
	"hourglass/internal/runtime"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// guardedTypes are the event types the lifecycle driver emits itself
// (EvCheckpoint on the dist plane comes from the coordinator, and is
// pinned all the same: the driver decides when sessions stop).
var guardedTypes = []string{
	obs.EvDecision, obs.EvSpend, obs.EvDeploy, obs.EvEvict, obs.EvCheckpoint,
	obs.EvWarning, obs.EvStandby, obs.EvCutover, obs.EvDone,
}

// guardOffsets are the Execute start offsets: 0, 9000, …, 207000 s.
func guardOffsets() []units.Seconds {
	out := make([]units.Seconds, 24)
	for i := range out {
		out[i] = units.Seconds(i * 9000)
	}
	return out
}

// guardRun is one guarded Execute run: the offset grid on a clean
// store, then 24 seeded offsets over the trace horizon on a store with
// the chaos suite's fault policy, so evictions, failed saves and
// corrupt reloads are pinned too.
type guardRun struct {
	start units.Seconds
	store cloud.BlobStore
}

func guardRuns(h *harness) []guardRun {
	var runs []guardRun
	for _, start := range guardOffsets() {
		runs = append(runs, guardRun{start, cloud.NewDatastore()})
	}
	for i := 0; i < 24; i++ {
		seed := int64(5000 + i)
		rng := rand.New(rand.NewSource(seed * 17))
		start := units.Seconds(rng.Float64() * float64(h.horizon-h.relDl))
		runs = append(runs, guardRun{start, faultinject.Wrap(cloud.NewDatastore(), chaosPolicy(seed))})
	}
	return runs
}

// traceDigest accumulates one running hash per guarded event type.
type traceDigest map[string]hash.Hash

func newTraceDigest() traceDigest {
	d := traceDigest{}
	for _, typ := range guardedTypes {
		d[typ] = sha256.New()
	}
	return d
}

// add folds one run's events. Proc names worker goroutines or pids,
// which are not part of the trajectory; clearReload drops the deploy
// reload flag, whose dist definition changed on purpose (every deploy
// after the first is a reload).
func (d traceDigest) add(t *testing.T, events []obs.Event, clearReload bool) {
	t.Helper()
	for _, e := range events {
		h, ok := d[e.Type]
		if !ok {
			continue
		}
		e.Proc = ""
		if clearReload {
			e.Reload = false
		}
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
}

func (d traceDigest) check(t *testing.T, want map[string]string) {
	t.Helper()
	for _, typ := range guardedTypes {
		if got := hex.EncodeToString(d[typ].Sum(nil)); got != want[typ] {
			t.Errorf("%s digest %s, pinned %s", typ, got, want[typ])
		}
	}
}

// Digests pinned before the lifecycle driver was unified; an empty
// stream hashes to e3b0c442….
var (
	executeDigests = map[string]string{
		obs.EvDecision:   "1773377f53025dff5ac8a64839911967e700ae2f1a1706072b928cbab0f39423",
		obs.EvSpend:      "c12334e8b4307edb2128d1488b42201c70646decd920ecda2fdd33f2d65d6030",
		obs.EvDeploy:     "ffeb4b745a9912fcaeb5763acbd73009847fe9b252b28587d7a10c503141b5dc",
		obs.EvEvict:      "e2397127a1b16aaf4d4e6a65fd7b3734e3cd1d41b9e528850cf68d0252fc5ec8",
		obs.EvCheckpoint: "aa1e6de50231a6fb4499714950b1856f57283999020825c0923ad8f4ac20aff7",
		obs.EvWarning:    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		obs.EvStandby:    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		obs.EvCutover:    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		obs.EvDone:       "b4368cf009987f4a1bb9b6ecae09506cc6d7236daa87e4c0f34c0391094a8dcc",
	}
	distDigests = map[string]string{
		obs.EvDecision:   "296fe975003e3cd38b14ea6a06a36566c9ca33be45d1a7d2df6fe201acdf53ac",
		obs.EvSpend:      "218e8bc0401fe977610cdfe1b170f5d1f49dd5f68e0dac1c19d6d44a78d89786",
		obs.EvDeploy:     "2b350b57ae1ce68612c867ffa19ccb71bc1bde1f32591d92b5bd5e653b4c959f",
		obs.EvEvict:      "dcef211f90b7a9be7891e386566e1b43689058b6a5bea40a50fa81c9032080fd",
		obs.EvCheckpoint: "f48a7af74f0ef0e697fa8b2a0fa19b484a9269cb7f93ab05a4158c108b094af8",
		obs.EvWarning:    "63d4fbe05074002f1fd7b8c52264ff581ea1174902c010baca6f7077cd6f019e",
		obs.EvStandby:    "b7f4213135b86aa48c0100b2547c6f9e8f148a29669cd72ea77a9ecf310d6d88",
		obs.EvCutover:    "59e9233781849ccfe8887d4842eaace7f8535f77eaeea507faa75dc964c1aa28",
		obs.EvDone:       "0b2636f676cfc11050a01e0920c7c96b6212ee19cf1755f5a2f8a0de1f4c3029",
	}
)

func TestTraceGuardExecute(t *testing.T) {
	d := newTraceDigest()
	for _, app := range []string{"pagerank", "sssp"} {
		h := getHarness(t, app)
		for i, r := range guardRuns(h) {
			start := r.start
			sink := &listSink{}
			opts := h.options(t, r.store, fmt.Sprintf("guard/%s/%d", app, i), h.provisioner(t))
			opts.Sink = sink
			opts.Logf = func(string, ...any) {}
			rep, err := runtime.Execute(context.Background(), opts, start, start+h.relDl)
			if err != nil {
				t.Fatalf("%s at %.0fs: %v", app, float64(start), err)
			}
			if !rep.Finished {
				t.Fatalf("%s at %.0fs did not finish", app, float64(start))
			}
			d.add(t, sink.snapshot(), false)
		}
	}
	d.check(t, executeDigests)
}

// spotEvictionStart finds the first start offset (on a 1800 s grid)
// where the driver's own projection puts a price crossing of the spot
// configuration 3..total-2 supersteps into its first segment.
func spotEvictionStart(t *testing.T, h *harness, spot cloud.Config, total int) units.Seconds {
	t.Helper()
	cs := statsFor(t, h.env, spot)
	secPerStep := float64(cs.Exec) / float64(total)
	ev := sim.Evictor{Market: h.env.Market}
	for i := 0; i < 600; i++ {
		s := units.Seconds(float64(i) * 1800)
		avail, err := h.env.Market.NextAvailable(spot, s)
		if err != nil {
			continue
		}
		readyAt := avail + cs.Boot + cs.Load
		ne := ev.Next(spot, readyAt)
		if math.IsInf(float64(ne), 1) {
			continue
		}
		if k := int(float64(ne-readyAt) / secPerStep); k >= 3 && k < total-1 {
			return s
		}
	}
	t.Fatal("no start offset with a mid-run spot eviction")
	return 0
}

func TestTraceGuardExecuteDist(t *testing.T) {
	d := newTraceDigest()
	ref := distReference(t)
	total := ref.Stats.Supersteps
	run := func(h *harness, job string, prov core.Provisioner, launcher func(cloud.BlobStore) runtime.DistLauncher,
		window units.Seconds, start, deadline units.Seconds) {
		t.Helper()
		store := cloud.NewDatastore()
		sink := &listSink{}
		opts := h.distOptions(t, store, job, prov, total, launcher(store))
		opts.Sink = sink
		opts.WarningWindow = window
		opts.Logf = func(string, ...any) {}
		rep, err := runtime.ExecuteDist(context.Background(), opts, start, deadline)
		if err != nil {
			t.Fatalf("%s: %v", job, err)
		}
		if !rep.Finished {
			t.Fatalf("%s did not finish", job)
		}
		assertBitIdentical(t, ref.Values, rep.Values)
		d.add(t, sink.snapshot(), true)
	}
	loopback := func(store cloud.BlobStore) runtime.DistLauncher {
		return &runtime.LoopbackLauncher{Store: store}
	}

	// Kill-resize: a worker of the 8-shard set dies at superstep 3 and
	// the scripted provisioner re-decides onto 4 shards.
	h := getHarness(t, "pagerank")
	resize := &scriptedProv{configs: []cloud.Config{onDemandByCount(t, h.env, 8), onDemandByCount(t, h.env, 4)}}
	run(h, "guard-resize", resize, func(store cloud.BlobStore) runtime.DistLauncher {
		return &runtime.LoopbackLauncher{Store: store,
			ShardOpts: func(attempt, shard int) dist.ShardOptions {
				opts := dist.ShardOptions{Store: store}
				if attempt == 0 && shard == 1 {
					opts.DieAtSuperstep = 3
				}
				return opts
			}}
	}, 0, 0, 200_000)

	// A forewarned death at superstep 6: warm cutover onto 4 shards
	// after a forced in-window checkpoint.
	warned := &scriptedProv{configs: []cloud.Config{onDemandByCount(t, h.env, 8), onDemandByCount(t, h.env, 4)}}
	run(h, "guard-warned", warned, func(store cloud.BlobStore) runtime.DistLauncher {
		return &runtime.LoopbackLauncher{Store: store,
			ShardOpts: func(attempt, shard int) dist.ShardOptions {
				opts := dist.ShardOptions{Store: store}
				if attempt == 0 && shard == 1 {
					opts.DieAtSuperstep = 6
				}
				return opts
			},
			DeathAt: func(attempt int) int {
				if attempt == 0 {
					return 6
				}
				return 0
			}}
	}, 2000, 0, 200_000)

	// Slack-aware provisioning over the synthetic market from a cold start.
	run(h, "guard-sa", h.provisioner(t), loopback, 0, 0, h.relDl)

	// The r4 checked-in market: a spot set evicted mid-run, recovered
	// cold and then warm.
	soak := getSoakHarness(t, "pagerank")
	spot := transientByCount(t, soak.env, 8)
	start := spotEvictionStart(t, soak, spot, total)
	for _, window := range []units.Seconds{0, 600} {
		prov := &scriptedProv{configs: []cloud.Config{spot, onDemandByCount(t, soak.env, 4)}}
		run(soak, fmt.Sprintf("guard-r4/%.0f", float64(window)), prov, loopback, window, start, start+200_000)
	}
	d.check(t, distDigests)
}
