// Command e2ebench is the end-to-end benchmark of the served paths:
// it drives scheduler.New + Controller.Submit over the sim, dist and
// engine backends, configured as hourglass-serve configures them, and
// times every layer from outside through the public interfaces the
// controller already takes. See README.md for the workloads and the
// layer → metric → workload map.
//
//	go build -o e2ebench . && ./e2ebench --workload dist-pagerank --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object; a table of
// every metric goes to standard error. The exit code is non-zero when
// any correctness or repeat check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"syscall"
	"time"

	goruntime "runtime"
	"runtime/debug"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// rssStretch is the stretch of the timed phase each resident-set peak
// covers; rss_peak_mb is the median of the stretches' peaks. The peak
// of a whole run is the largest of many transient allocation bursts,
// so it grows with the run's length and varies widely between runs.
const rssStretch = time.Second

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed: the timed jobs' names (hence their trace offsets), the arrival stream and the engine check's start offset")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = untraced end-to-end metrics")
	stateDir := flag.String("state-dir", "", "directory keeping per-seed digests of the deterministic counts, compared across runs (empty = off)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	traced := *trace == 1

	// Set-up, five times: lane A is kept, the others only measured. A
	// traced run also keeps lane B, the traced lane. All warm up on the
	// same inputs; the timed phase then feeds the kept lanes disjoint
	// jobs from one shared feed.
	keep := 1
	if traced {
		keep = 2
	}
	// The other stacks are dropped, so the collector frees them.
	var kept []*lane
	var setups []setupTimes
	var warm []unit
	for i := 0; i < setupReps; i++ {
		l, st, u, err := newLane(w, traced && i == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: set-up: %v\n", err)
			return 1
		}
		setups, warm = append(setups, st), append(warm, u)
		if i < keep {
			kept = append(kept, l)
		} else {
			l.shutdown()
		}
	}
	a, b := kept[0], kept[keep-1] // b is a on an untraced run
	// The seed's jobs start on the virtual clock where the warm-up left
	// it.
	shared := &feed{prefix: fmt.Sprintf("seed%d-job", *seed), base: a.vnow}
	if w.admission {
		var err error
		if shared.arrivals, err = arrivalSpec(*seed).Generate(); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: arrivals: %v\n", err)
			return 1
		}
	}
	for _, l := range kept {
		l.feed = shared
	}

	// Correctness gate, outside the timed phase.
	var problems []string
	if err := checkOutputs(w, *seed); err != nil {
		problems = append(problems, err.Error())
	}
	if w.backend == "engine" && !traced {
		u, p := checkFoldLane(w)
		problems = append(problems, p...)
		if len(u.jobs) > 0 {
			warm = append(warm, u)
		}
	}

	// rss_peak_mb covers the timed phase only: set-up and the gate
	// built stacks a served process does not hold.
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: rss_peak_mb includes set-up: %v\n", err)
	}

	// Timed phase: closed loop, one unit at a time, alternating lanes
	// on a traced run.
	var units, ua, ub []unit
	var procA procSample
	var rssPeaks []float64
	t0 := time.Now()
	stretch := t0
	for k := 0; time.Since(t0).Seconds() < *seconds; k++ {
		if time.Since(stretch) >= rssStretch {
			rssPeaks = append(rssPeaks, peakRSSMB())
			_ = resetPeakRSS() // a failure was reported above
			stretch = time.Now()
		}
		if traced && k%2 == 1 {
			u := b.runUnit()
			units, ub = append(units, u), append(ub, u)
			continue
		}
		var p0 procSnap
		if traced {
			p0 = takeProc()
		}
		u := a.runUnit()
		if traced {
			procA.add(p0, takeProc())
		}
		units, ua = append(units, u), append(ua, u)
	}
	wall := time.Since(t0)
	if len(rssPeaks) == 0 {
		rssPeaks = append(rssPeaks, peakRSSMB())
	}

	problems = append(problems, checkUnits(w, warm, units)...)
	if traced {
		problems = append(problems, checkTraced(w, b, ub)...)
	}
	digests := digestUnits(w, units, traced)
	if *stateDir != "" {
		if err := compareDigests(*stateDir, w.name, *seed, traced, digests); err != nil {
			problems = append(problems, err.Error())
		}
	}
	fmt.Fprintf(os.Stderr, "deterministic-count digest: %s (%d jobs)\n", digestOf(digests), len(digests))

	var ms metricSet
	if traced {
		ms = layerMetrics(w, setups, ua, ub, procA)
	} else {
		ms = endToEndMetrics(w, a, setups, units, wall, quantile(rssPeaks, 0.5))
	}
	attempted, failed := countFailures(units)
	for _, l := range kept {
		l.shutdown()
	}

	ms.print(os.Stderr, w.name, traced)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(problems) == 0, attempted, failed, ms.reported()}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(enc))
	if len(problems) > 0 {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// countFailures counts the timed phase's submissions and the ones that
// failed (errors and timeouts; admission rejections are outcomes).
// It prints the cause of the first few failures.
func countFailures(us []unit) (attempted, failed int) {
	for _, r := range jobsOf(us) {
		attempted++
		if err := r.failure(); err != nil {
			failed++
			if failed <= 10 {
				fmt.Fprintf(os.Stderr, "job failed: %s: %v\n", r.id, err)
			}
		}
	}
	return attempted, failed
}

// procSnap is the process's CPU time and allocation counters.
type procSnap struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func takeProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return procSnap{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.TotalAlloc,
		gc:    m.NumGC,
	}
}

// procSample sums process counters over the untraced lane's units.
type procSample struct {
	wall, cpu time.Duration
	alloc     uint64
	gc        uint32
}

func (p *procSample) add(a, b procSnap) {
	p.wall += b.at.Sub(a.at)
	p.cpu += b.cpu - a.cpu
	p.alloc += b.alloc - a.alloc
	p.gc += b.gc - a.gc
}

// resetPeakRSS returns the heap's free pages to the OS and restarts
// the resident-set high-water mark from the current size.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// digestOf folds per-job digests into one line for the log.
func digestOf(ds []string) string {
	h := fnv.New64a()
	for _, d := range ds {
		h.Write([]byte(d + "\n"))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func gomaxprocs() int { return goruntime.GOMAXPROCS(0) }
