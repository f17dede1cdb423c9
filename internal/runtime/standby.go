// Warm-standby recovery: when the driver learns of an upcoming
// eviction a warning window early — from the market's forecast price
// crossing, or from a launcher that forewarns a scheduled worker death
// — it re-decides the fallback configuration immediately and boots the
// next deployment *concurrently* with the still-running doomed
// segment. The standby workers prefetch the newest checkpoint chain
// into a read-through cache while they wait for the coordinator to
// accept, and when the window also fits one checkpoint save the doomed
// segment is forced to seal a final checkpoint at the eviction
// boundary. At the eviction instant the driver cuts over: the
// standby's wait + boot + reload all happened inside the window,
// overlapped with paid-for compute, so the recovery downtime on the
// virtual clock is zero and the resume point is within one superstep
// of the boundary. A standby that cannot be ready in time (market
// capacity, launch failure, eviction landing early) is a recorded miss
// and the driver falls back to the reactive path — the run still
// finishes, just with cold recovery billing.

package runtime

import (
	"context"
	"math"

	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// standby is one armed standby. The orchestration goroutine owns every
// field until it closes done; afterwards the driver goroutine owns
// them. A standby that never became launchable leaves booted.dep nil.
type standby struct {
	done chan struct{}
	booted

	cs      *core.ConfigStats
	avail   units.Seconds // market availability of the standby set
	readyAt units.Seconds // avail + boot + prefetch: earliest cutover
	reload  units.Seconds // prefetch I/O priced into readyAt
}

// armStandby wires the warning machinery into a segment about to
// start: it projects the interruption boundary (injected market
// eviction, forewarned worker death, whichever lands first), decides
// whether the window fits a final in-window save (seg.forceAt), and
// hands the monitor a warning trigger that spawns the standby
// orchestration goroutine. It returns nil when no warning is possible
// for this segment.
func (d *driver) armStandby(ctx context.Context, mon *monitor, seg *segment, cs *core.ConfigStats, secPerStep, nextEvict units.Seconds) *standby {
	window := d.cfg.warning
	if window <= 0 {
		return nil
	}
	// The interruption boundary in segment supersteps, and the virtual
	// instant the machines disappear.
	done := d.progress()
	boundary := mon.evictAfter
	evProj := nextEvict
	if d.live.dieAt > 0 {
		// The worker dies while computing absolute superstep dieAt, so
		// the segment completes dieAt-1 supersteps past its start.
		deathSteps := d.live.dieAt - 1 - done
		if deathSteps >= 1 && deathSteps < seg.steps && (boundary == 0 || deathSteps < boundary) {
			boundary = deathSteps
			evProj = d.t + units.Seconds(float64(deathSteps)*float64(secPerStep))
		}
	}
	if boundary <= 0 {
		return nil
	}

	warnSteps := max(1, int(math.Ceil(float64(window)/float64(secPerStep))))
	warnAt := max(d.t, evProj-window)

	// When the window fits one save, force a final checkpoint at the
	// boundary: the standby resumes from the eviction instant itself
	// instead of the last cadence checkpoint.
	projDurable := done
	if window >= cs.Save {
		seg.forceAt = done + boundary
		projDurable = seg.forceAt
		if mon.evictAfter > 0 && boundary == mon.evictAfter {
			// Injected eviction: the monitor must let the forced save seal
			// before cancelling. A forewarned death needs no monitor trip
			// — the loss itself ends the segment.
			mon.warmBoundary = seg.forceAt
		}
	} else if every := d.cfg.cadence; every > 0 {
		// Reactive durability: project the last cadence checkpoint that
		// seals strictly before the boundary.
		projDurable = done + (boundary-1)/every*every
	}

	sb := &standby{done: make(chan struct{})}
	mon.warnAfter = max(1, boundary-warnSteps)
	mon.onWarn = func() {
		go d.startStandby(ctx, sb, cs, warnAt, evProj, projDurable)
	}
	return sb
}

// startStandby is the orchestration goroutine behind a fired warning.
// It runs concurrently with the doomed segment; the driver goroutine
// is parked inside the deployment's run and joins on sb.done before
// reading the report again, so the report mutations here are
// unsynchronized by design. Billing is deferred to cutover/discard
// time on the driver goroutine to keep the EvSpend fold order
// deterministic.
func (d *driver) startStandby(ctx context.Context, sb *standby, cur *core.ConfigStats, warnAt, evProj units.Seconds, projDurable int) {
	defer close(sb.done)
	wl := d.workLeft(projDurable)
	d.rep.Warnings++
	d.emit(obs.Event{Type: obs.EvWarning, T: float64(warnAt), Config: cur.Config.ID(),
		WorkLeft: wl, DurSec: float64(d.cfg.warning)})

	// Re-decide for the post-eviction world: the standby takes over at
	// the projected eviction instant with the projected durable frontier.
	d.rep.Decisions++
	_, cs, err := d.decide(core.State{Now: evProj, WorkLeft: wl, Deadline: d.deadline})
	if err != nil {
		d.standbyMiss(warnAt, "", err)
		return
	}
	avail, err := d.cfg.env.Market.NextAvailable(cs.Config, warnAt)
	if err != nil {
		d.standbyMiss(warnAt, cs.Config.ID(), err)
		return
	}
	reload := d.loadTime(cs, projDurable, 0)
	readyAt := avail + cs.Boot + reload
	if readyAt > evProj {
		// The fallback machines cannot be up before the primaries die:
		// booting them would buy nothing over reactive recovery.
		d.standbyMiss(warnAt, cs.Config.ID(), nil)
		return
	}
	// The standby outlives the doomed segment by design: it is tied to
	// the run context and torn down at adoption's end or discard.
	b, err := d.exec.boot(ctx, cs, d.rep.Reconfigs, true)
	if err != nil {
		d.standbyMiss(warnAt, cs.Config.ID(), err)
		return
	}
	d.emit(obs.Event{Type: obs.EvStandby, T: float64(warnAt), Config: cs.Config.ID(),
		WorkLeft: wl, Ready: true})
	sb.booted, sb.cs, sb.avail, sb.readyAt, sb.reload = b, cs, avail, readyAt, reload
}

// standbyMiss records a standby that never became launchable.
func (d *driver) standbyMiss(at units.Seconds, config string, err error) {
	if err != nil {
		d.cfg.logf("runtime: job %q standby infeasible: %v", d.cfg.env.Job.Name, err)
	}
	d.rep.StandbyMisses++
	d.emit(obs.Event{Type: obs.EvStandby, T: float64(at), Config: config, Ready: false})
}

// settleStandby decides a launched standby's fate at the eviction that
// ended its segment, at absolute time evTime. Ready in time: bill the
// overlap window on the standby config, record the warm cutover and
// hand the set to the next loop iteration. Not ready: discard.
func (d *driver) settleStandby(sb *standby, evTime units.Seconds) error {
	if sb == nil || sb.dep == nil {
		return nil // not armed, or the miss was already recorded
	}
	if sb.readyAt > evTime {
		// The eviction landed earlier than projected (a worker death
		// raced the forecast): the standby never got ready.
		return d.discardStandby(sb, evTime)
	}
	if err := d.spend(sb.cs.Config, sb.avail, evTime); err != nil {
		d.teardownStandby(sb)
		return err
	}
	d.rep.IOTime += sb.reload
	d.rep.WarmCutovers++
	d.emit(obs.Event{Type: obs.EvCutover, T: float64(evTime), Config: sb.cs.Config.ID(),
		WorkLeft: d.workLeft(d.progress()), DurSec: 0})
	d.pending = sb
	return nil
}

// discardStandby releases a launched standby that never cut over,
// billing its machines for the time they ran and recording the miss.
func (d *driver) discardStandby(sb *standby, billTo units.Seconds) error {
	if sb == nil || sb.dep == nil {
		return nil
	}
	d.teardownStandby(sb)
	if billTo > sb.avail {
		if err := d.spend(sb.cs.Config, sb.avail, billTo); err != nil {
			return err
		}
	}
	d.standbyMiss(billTo, sb.cs.Config.ID(), nil)
	return nil
}

// teardownStandby releases a standby's workers without accounting —
// the error and cancellation exits, where the trace is already
// incomplete.
func (d *driver) teardownStandby(sb *standby) {
	if sb != nil && sb.dep != nil {
		sb.dep.close()
	}
}
