package core

import (
	"math"

	"sprintcon/internal/engine"
	"sprintcon/internal/sim"
)

// This file implements the event engine's quiescent-span protocol for
// SprintCon (sim.QuiescentPolicy, DESIGN.md §15). The engine certifies an
// exact floating-point fixed point by observing the digest below stay
// bit-identical for more than one full adaptation cadence, then closes
// spans analytically with AdvanceQuiescent instead of calling Tick every
// second.
//
// The digest covers every mutable field a Tick can read or write, with two
// deliberate exclusions, both replayed exactly by AdvanceQuiescent rather
// than certified stable:
//
//   - lastCtl and the allocator's adaptation window (lastUpdate, samples,
//     samplesHigh): these advance even at a fixed point, so AdvanceQuiescent
//     walks the control-period firings at the real cadence, records the
//     headroom observations between them in bulk, and re-runs the P_batch
//     adaptation (MaybeUpdatePBatch) wherever it falls due;
//   - batch-job progress: jobs keep executing through a span (the rack
//     replays them with AdvanceBatchTicks), so job state cannot be digested.
//     Instead, all-jobs-completed is a hard eligibility condition: a
//     completed job's control weight and deadline floor are constants,
//     while an incomplete job's RWeight(now) varies with now and would
//     change the MPC's inputs one control period before any digest noticed.
//
// Everything else the skipped Tick would have written is rewritten
// bit-identically at a certified fixed point (that is what digest equality
// across consecutive ticks means), so not calling it leaves the state
// exact.

// QuiescenceDigest implements sim.QuiescentPolicy: it appends the
// controller's mutable state to the digest and reports whether the policy
// is structurally eligible for span fast-forwarding at all. Ineligible
// states — an active external budget (retightened by a coordinator outside
// this policy's view), online model estimation, a pending decision record,
// live telemetry, or any incomplete batch job — return false without
// touching the digest.
func (s *SprintCon) QuiescenceDigest(env *sim.Env, d *engine.Digest) bool {
	if s.ext.Active || s.rls != nil || s.pending != nil || s.tm.enabled {
		return false
	}
	if !env.Rack.AllBatchJobsCompleted() {
		return false
	}
	d.Int(int(s.mode))
	d.Bool(s.everNearTrip)
	d.Bool(s.everDepleted)
	d.F64(s.failSafeUntil)
	d.F64(s.curPCb)
	d.F64(s.curPBatch)
	d.F64(s.kModel)
	d.F64(s.prevPfb)
	d.F64(s.lastMoveSum)
	d.Bool(s.havePrev)
	d.F64s(s.cmdFreqs)
	d.Int(s.inv.cbMargin)
	d.Int(s.inv.socFloor)
	d.Int(s.inv.freqBounds)
	d.Int(s.inv.deadline)
	d.Bool(s.inv.cbLogged)
	d.Bool(s.inv.socLogged)
	d.Bool(s.inv.freqLogged)
	d.Bool(s.inv.deadlineLogged)
	s.allocator.QuiescenceDigest(d)
	s.mpc.QuiescenceDigest(d)
	s.pi.QuiescenceDigest(d)
	s.upsctl.QuiescenceDigest(d)
	if s.hd.enabled() {
		d.Bool(true)
		s.hd.guard.QuiescenceDigest(d)
		d.Bool(s.hd.degraded)
		d.F64(s.hd.upsLastReqW)
		d.Int(s.hd.upsFailTicks)
		d.Bool(s.hd.upsFailed)
		d.F64s(s.hd.lastApplied)
		d.Ints(s.hd.stuckCount)
		d.Bools(s.hd.locked)
		d.Ints(s.hd.probeLeft)
	} else {
		d.Bool(false)
	}
	return true
}

// QuiescenceCadenceTicks implements sim.QuiescentPolicy: the number of
// consecutive bit-identical digests required before a fixed point is
// certified. It must strictly exceed the controller's slowest internal
// period — the allocator's P_batch adaptation window — measured in ticks,
// plus one more control period so the post-adaptation state is observed
// too; a shorter streak could certify a state that still changes when the
// next adaptation fires.
func (s *SprintCon) QuiescenceCadenceTicks(dt float64) int {
	ctlTicks := int(math.Ceil(s.cfg.ControlPeriodS / dt))
	if ctlTicks < 1 {
		ctlTicks = 1
	}
	pbCtl := 1
	if pb := s.allocator.Config().PBatchPeriodS; pb > 0 && s.cfg.ControlPeriodS > 0 {
		if pbCtl = int(math.Ceil(pb / s.cfg.ControlPeriodS)); pbCtl < 1 {
			pbCtl = 1
		}
	}
	return pbCtl*ctlTicks + ctlTicks
}

// QuiescentHorizonTicks implements sim.QuiescentPolicy: a conservative
// count of upcoming ticks over which the policy's scheduled budget cannot
// move — the allocator's overload/recovery square wave and the post-restart
// fail-safe expiry are the two time-driven edges. Capped at maxTicks.
func (s *SprintCon) QuiescentHorizonTicks(now, dt float64, maxTicks int) int {
	// A span replays control firings under the certified budget, so it may
	// only open while the schedule still evaluates to the budget the
	// controller last applied. The two diverge exactly when a schedule edge
	// (overload onset/exit, fail-safe expiry) falls on the span's opening
	// tick: the digest streak was certified on pre-edge ticks and cannot
	// see it. Forcing a zero horizon makes the edge tick run as a real
	// tick, whose control firing re-reads the schedule.
	if s.effectivePCb(now) != s.curPCb {
		return 0
	}
	min := maxTicks
	consider := func(limit float64) {
		if math.IsInf(limit, 1) || limit <= now {
			return
		}
		// The last safe tick must stay strictly before the edge; the −1
		// absorbs the boundary tick itself.
		if n := int((limit-now)/dt) - 1; n < min {
			min = n
		}
	}
	// In ModeEnded the budget is pinned at the breaker rating, so the
	// allocator's overload/recovery square wave cannot reach the
	// controller and its edges need not bound spans.
	if s.mode != ModeEnded {
		consider(s.allocator.NextBudgetEdge(now))
	}
	if now < s.failSafeUntil {
		consider(s.failSafeUntil)
	}
	if min < 0 {
		min = 0
	}
	return min
}

// AdvanceQuiescent implements sim.QuiescentPolicy: it replays the
// digest-excluded controller state across n fast-forwarded ticks at times
// (step0+k)·dt, k = 0..n−1, bit-identically to n real Tick calls at a
// certified fixed point. Only three mutations survive at a fixed point:
// the per-tick headroom observation, the control-period clock, and the
// periodic P_batch adaptation — everything else Tick writes is rewritten
// identically and is skipped.
//
// The replay walks from one control firing to the next instead of from
// tick to tick. A firing that does not adapt P_batch only moves lastCtl, so
// the headroom observations are recorded in bulk (ObserveHeadroomTicks)
// just before each adapting firing — they precede it within its tick — and
// once more at the span's end. The deadline floor is computed once: every
// job has completed (a digest precondition), so it is a constant sum.
func (s *SprintCon) AdvanceQuiescent(env *sim.Env, step0 int, dt float64, n int) {
	// Pure function of rack state the span holds constant (interactive
	// utilizations and frequencies), so one evaluation serves every tick.
	pInterEst := env.Rack.EstimateInteractivePower()
	pDeadline, _ := s.deadlinePowerFloor(env, float64(step0)*dt)
	observed := 0 // ticks [0, observed) have recorded their headroom sample
	// The first firing is estimated from lastCtl, each later one from the
	// gap between the last two.
	for k, gap := s.nextControlTick(step0, dt, 0, -1, n), 1; k < n; {
		now := float64(step0+k) * dt
		s.lastCtl = now
		if s.allocator.PBatchDue(now) {
			s.allocator.ObserveHeadroomTicks(pInterEst, step0+observed, dt, k+1-observed)
			observed = k + 1
			s.allocator.MaybeUpdatePBatch(now, pDeadline, s.pBatchMin, s.pBatchMax)
		}
		next := s.nextControlTick(step0, dt, k+1, k+gap, n)
		gap, k = next-k, next
	}
	s.allocator.ObserveHeadroomTicks(pInterEst, step0+observed, dt, n-observed)
}

// nextControlTick returns the first k in [from, n) whose tick time
// float64(step0+k)·dt fires the control period under Tick's own test
// against lastCtl, or n if none does. The test is monotone in k, so the
// search moves from guess (clamped to [from, n]; a negative guess is
// estimated from lastCtl) to the first firing tick.
func (s *SprintCon) nextControlTick(step0 int, dt float64, from, guess, n int) int {
	period := s.cfg.ControlPeriodS - 1e-9
	fires := func(k int) bool { return float64(step0+k)*dt-s.lastCtl >= period }
	if guess < 0 {
		guess = int(math.Max(math.Min(math.Ceil((s.lastCtl+period)/dt)-float64(step0), float64(n)), 0))
	}
	k := min(max(guess, from), n)
	for k > from && fires(k-1) {
		k--
	}
	for k < n && !fires(k) {
		k++
	}
	return k
}
