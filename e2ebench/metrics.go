package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"hourglass"
	"hourglass/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds the reported metrics in order, plus named extras
// printed in the table only (they may be 0, which the JSON contract
// does not allow for end-to-end metrics).
type metricSet struct {
	names  []string
	values map[string]metric
	extra  []string
}

func (m *metricSet) set(name, unit string, v float64) {
	if m.values == nil {
		m.values = map[string]metric{}
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

// setExtra records a table-only metric.
func (m *metricSet) setExtra(name, unit string, v float64) {
	m.set(name, unit, v)
	m.extra = append(m.extra, name)
}

func (m *metricSet) reported() map[string]metric {
	out := map[string]metric{}
	for k, v := range m.values {
		out[k] = v
	}
	for _, k := range m.extra {
		delete(out, k)
	}
	return out
}

func (m *metricSet) print(w io.Writer, workload string, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s metrics, workload %s:\n", kind, workload)
	for _, name := range m.names {
		v := m.values[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
}

// quantile interpolates linearly between order statistics (the
// default of numpy and of R's type 7). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func jobsOf(us []unit) []*jobRec {
	var out []*jobRec
	for _, u := range us {
		out = append(out, u.jobs...)
	}
	return out
}

// jobMs is the client-visible latency: Submit to the wrapped Run
// returning, less the time the admission client held the run while
// its window was still submitting.
func jobMs(rs []*jobRec) []float64 {
	var out []float64
	for _, r := range rs {
		if r.ran() {
			out = append(out, ms(r.submitEnd.Sub(r.submitStart)+r.runEnd.Sub(r.dispatchFrom())))
		}
	}
	return out
}

func setupMedian(setups []setupTimes, f func(setupTimes) time.Duration) float64 {
	var xs []float64
	for _, s := range setups {
		xs = append(xs, f(s).Seconds())
	}
	return quantile(xs, 0.5)
}

// endToEndMetrics are what a tenant of the service sees, from the
// untraced lanes.
func endToEndMetrics(w workload, l *lane, setups []setupTimes, us []unit, wall time.Duration, rssMB float64) metricSet {
	var m metricSet
	rs := jobsOf(us)
	var submit []float64
	var placed, accepted, ran, met, failed int
	var cost, baseline float64
	baselines := map[hourglass.JobKind]float64{}
	for _, r := range rs {
		submit = append(submit, ms(r.submitEnd.Sub(r.submitStart)))
		if r.failure() != nil {
			failed++
		}
		if r.submitErr == nil {
			accepted++
			if !r.queued {
				placed++
			}
		}
		if !r.ran() {
			continue
		}
		ran++
		if r.res.Finished && !r.res.MissedDeadline {
			met++
		}
		kind := r.kind
		if _, ok := baselines[kind]; !ok {
			b, _ := l.sys.Baseline(kind) // the kind passed Submit's validation
			baselines[kind] = float64(b)
		}
		cost += float64(r.res.Cost)
		baseline += baselines[kind]
	}
	job := jobMs(rs)
	m.set("job_ms.p50", "ms", quantile(job, 0.5))
	m.set("job_ms.p75", "ms", quantile(job, 0.75))
	ops := float64(ran)
	if w.admission {
		ops = float64(len(rs))
	}
	m.set("ops_per_s", "1/s", ops/wall.Seconds())
	m.set("submit_ms.p50", "ms", quantile(submit, 0.5))
	m.set("admit_frac", "frac", ratio(float64(placed), float64(len(rs))))
	m.set("norm_cost", "ratio", ratio(cost, baseline))
	m.set("deadline_met_frac", "frac", ratio(float64(met), float64(ran)))
	m.set("ok_frac", "frac", 1-ratio(float64(failed), float64(len(rs))))
	m.set("rss_peak_mb", "MB", rssMB)
	m.set("setup_s", "s", setupMedian(setups, setupTimes.total))
	m.setExtra("deadline_miss_frac", "frac", 1-ratio(float64(met), float64(ran)))
	m.setExtra("error_frac", "frac", ratio(float64(failed), float64(len(rs))))
	m.setExtra("job_ms.p90", "ms", quantile(job, 0.9))
	m.setExtra("submit_ms.p75", "ms", quantile(submit, 0.75))
	m.setExtra("submit_ms.p99", "ms", quantile(submit, 0.99))
	m.setExtra("jobs_run", "count", float64(ran))
	m.setExtra("submissions", "count", float64(len(rs)))
	m.setExtra("accepted_frac", "frac", ratio(float64(accepted), float64(len(rs))))
	return m
}

// layerMetrics are the per-layer numbers of a traced run: lane B is
// traced, lane A ran the same inputs untraced.
func layerMetrics(w workload, setups []setupTimes, ua, ub []unit, procA procSample) metricSet {
	var m metricSet
	m.set("setup.system_s", "s", setupMedian(setups, func(s setupTimes) time.Duration { return s.system }))
	m.set("setup.inputs_s", "s", setupMedian(setups, func(s setupTimes) time.Duration { return s.inputs }))
	m.set("setup.warmup_s", "s", setupMedian(setups, func(s setupTimes) time.Duration { return s.warmup }))

	rs := jobsOf(ub)
	var admitMs, estMs, gateMs, waitMs, runMs, simDec []float64
	var admitted, queued, rejected int
	for _, r := range rs {
		admitMs = append(admitMs, ms(r.admitDur))
		if r.estimateDur > 0 {
			estMs = append(estMs, ms(r.estimateDur))
		}
		gateMs = append(gateMs, ms(r.submitEnd.Sub(r.submitStart)-r.admitDur-r.estimateDur))
		switch {
		case r.rejected():
			rejected++
		case r.submitErr != nil:
		case r.queued:
			queued++
		default:
			admitted++
		}
		if !r.ran() {
			continue
		}
		waitMs = append(waitMs, ms(r.runStart.Sub(r.dispatchFrom())))
		runMs = append(runMs, ms(r.runEnd.Sub(r.runStart)))
		if w.backend == "sim" {
			simDec = append(simDec, float64(r.res.Decisions))
		}
	}
	m.set("scheduler.admit_ms.p50", "ms", quantile(admitMs, 0.5))
	m.set("scheduler.estimate_ms.p50", "ms", quantile(estMs, 0.5))
	m.set("scheduler.estimate_ms.p99", "ms", quantile(estMs, 0.99))
	m.set("admission.gate_ms.p50", "ms", quantile(gateMs, 0.5))
	m.set("admission.admitted", "count", float64(admitted))
	m.set("admission.queued", "count", float64(queued))
	m.set("admission.rejected", "count", float64(rejected))
	m.set("sim.decisions_per_job", "count/job", mean(simDec))
	m.set("scheduler.dispatch_wait_ms.p50", "ms", quantile(waitMs, 0.5))
	m.set("scheduler.run_ms.p50", "ms", quantile(runMs, 0.5))
	m.set("scheduler.run_ms.p90", "ms", quantile(runMs, 0.9))

	runtimeLayer(&m, w, rs)
	distLayer(&m, w, rs)
	cloudLayer(&m, rs)

	m.set("proc.cpu_util", "frac", ratio(procA.cpu.Seconds(), procA.wall.Seconds()*float64(gomaxprocs())))
	m.set("proc.alloc_mb_per_job", "MB/job", ratio(float64(procA.alloc)/(1<<20), float64(len(jobsOf(ua)))))
	m.set("proc.gc_cycles_per_job", "count/job", ratio(float64(procA.gc), float64(len(jobsOf(ua)))))
	m.set("trace.overhead_frac", "ratio", ratio(quantile(jobMs(rs), 0.5), quantile(jobMs(jobsOf(ua)), 0.5)))
	return m
}

// runtimeLayer covers the eviction-aware runtime and the in-process
// engine under it (engine backend only).
func runtimeLayer(m *metricSet, w workload, rs []*jobRec) {
	var dec, ckpt, evict, reconf, residual, steps, stepMs []float64
	var useful, executed, combined, messages float64
	if w.backend == "engine" {
		for _, r := range rs {
			if !r.ran() || r.trace == nil {
				continue
			}
			dec = append(dec, float64(r.res.Decisions))
			ckpt = append(ckpt, float64(r.res.Checkpoints))
			evict = append(evict, float64(r.res.Evictions))
			reconf = append(reconf, float64(r.res.Reconfigs))
			var stepNs int64
			n := 0
			seen := map[int]bool{}
			for _, s := range r.trace.events {
				if s.ev.Type != obs.EvSuperstep {
					continue
				}
				n++
				stepNs += s.ev.NsStep
				stepMs = append(stepMs, float64(s.ev.NsStep)/1e6)
				seen[s.ev.Superstep] = true
				combined += float64(s.ev.Combined)
				messages += float64(s.ev.Messages)
			}
			steps = append(steps, float64(n))
			useful += float64(len(seen))
			executed += float64(n)
			io := storeTime(r.trace.puts) + storeTime(r.trace.gets)
			residual = append(residual, ms(r.runEnd.Sub(r.runStart))-float64(stepNs)/1e6-ms(io))
		}
	}
	m.set("runtime.decisions_per_job", "count/job", mean(dec))
	m.set("runtime.checkpoints_per_job", "count/job", mean(ckpt))
	m.set("runtime.evictions_per_job", "count/job", mean(evict))
	m.set("runtime.reconfigs_per_job", "count/job", mean(reconf))
	m.set("runtime.residual_ms_per_job", "ms/job", mean(residual))
	m.set("engine.superstep_ms.p50", "ms", quantile(stepMs, 0.5))
	m.set("engine.superstep_ms.p99", "ms", quantile(stepMs, 0.99))
	m.set("engine.supersteps_per_job", "count/job", mean(steps))
	m.set("engine.useful_step_frac", "frac", ratio(useful, executed))
	m.set("engine.combined_frac", "frac", ratio(combined, messages))
}

// distLayer splits each dist job's wall time along its coordinator's
// events: a session starts at Run or at a shard loss, its set-up ends
// at the first superstep event (so it includes superstep 1), later
// supersteps span the gap since the previous event, and a checkpoint
// seal spans the gap from its superstep's event to its own.
func distLayer(m *metricSet, w workload, rs []*jobRec) {
	var setupMs, stepMs, sealMs, restarts, ckptBytes, residual []float64
	var wireBytes, wireFrames, steps, combined, messages float64
	if w.backend == "dist" {
		for _, r := range rs {
			if !r.ran() || r.trace == nil {
				continue
			}
			restarts = append(restarts, float64(r.res.Evictions))
			prev, inSetup := r.runStart, true
			var covered time.Duration
			for _, s := range r.trace.events {
				gap := s.at.Sub(prev)
				switch s.ev.Type {
				case obs.EvSuperstep:
					if inSetup {
						setupMs = append(setupMs, ms(gap))
						inSetup = false
					} else {
						stepMs = append(stepMs, ms(gap))
					}
					covered += gap
					steps++
					wireBytes += float64(s.ev.WireBytes)
					wireFrames += float64(s.ev.WireFrames)
					combined += float64(s.ev.Combined)
					messages += float64(s.ev.Messages)
				case obs.EvCheckpoint:
					sealMs = append(sealMs, ms(gap))
					ckptBytes = append(ckptBytes, float64(s.ev.WireBytes))
					covered += gap
				case obs.EvShardEvict:
					inSetup = true
				default:
					continue
				}
				prev = s.at
			}
			residual = append(residual, ms(r.runEnd.Sub(r.runStart)-covered))
		}
	}
	m.set("dist.superstep_ms.p50", "ms", quantile(stepMs, 0.5))
	m.set("dist.superstep_ms.p99", "ms", quantile(stepMs, 0.99))
	m.set("dist.wire_bytes_per_superstep", "B/superstep", ratio(wireBytes, steps))
	m.set("dist.wire_frames_per_superstep", "count/superstep", ratio(wireFrames, steps))
	m.set("dist.combined_frac", "frac", ratio(combined, messages))
	m.set("dist.session_setup_ms.p50", "ms", quantile(setupMs, 0.5))
	m.set("dist.restarts_per_job", "count/job", mean(restarts))
	m.set("dist.ckpt_seal_ms.p50", "ms", quantile(sealMs, 0.5))
	m.set("dist.ckpt_bytes_per_save", "B", mean(ckptBytes))
	m.set("dist.residual_ms_per_job", "ms/job", mean(residual))
}

// cloudLayer covers the checkpoint blob store.
func cloudLayer(m *metricSet, rs []*jobRec) {
	var putMs, getMs []float64
	var putB, getB, retries float64
	jobs := 0
	for _, r := range rs {
		if !r.ran() || r.trace == nil {
			continue
		}
		jobs++
		for _, op := range r.trace.puts {
			putMs = append(putMs, ms(op.dur))
			putB += float64(op.bytes)
		}
		for _, op := range r.trace.gets {
			getMs = append(getMs, ms(op.dur))
			getB += float64(op.bytes)
		}
		retries += float64(r.trace.storeErrs)
	}
	m.set("cloud.put_ms.p50", "ms", quantile(putMs, 0.5))
	m.set("cloud.put_bytes_per_job", "B/job", ratio(putB, float64(jobs)))
	m.set("cloud.get_ms.p50", "ms", quantile(getMs, 0.5))
	m.set("cloud.get_bytes_per_job", "B/job", ratio(getB, float64(jobs)))
	m.set("cloud.retries_per_job", "count/job", ratio(retries, float64(jobs)))
}

func storeTime(ops []storeOp) time.Duration {
	var d time.Duration
	for _, op := range ops {
		d += op.dur
	}
	return d
}
