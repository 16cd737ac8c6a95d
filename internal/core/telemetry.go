package core

import (
	"math"

	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// coreMetrics holds SprintCon's registered instruments, resolved once in
// Start so the control path performs no registry lookups. The zero value
// (telemetry disabled) yields nil instruments whose methods no-op.
type coreMetrics struct {
	enabled bool
	// Server power controller.
	solveSeconds  *telemetry.Histogram // wall clock; never in the trace
	qpIterations  *telemetry.Histogram
	qpUnconverged *telemetry.Counter
	// Measurement guard / watchdogs.
	guardRejected *telemetry.Counter
	guardConf     *telemetry.Gauge
	lockedCores   *telemetry.Gauge
	// Allocator and supervisor.
	allocMoves *telemetry.Counter
	pcbW       *telemetry.Gauge
	pbatchW    *telemetry.Gauge
	reserveW   *telemetry.Gauge
	shiftW     *telemetry.Gauge
	modeNum    *telemetry.Gauge
	// UPS power controller.
	upsReqW *telemetry.Gauge
	// Safety-invariant supervisor.
	invBreaches *telemetry.Gauge
}

// qpSweepBuckets cover the solver's effort range in ψ evaluations: 1 when
// the starting point's linear piece holds the root, 2 for a warm re-solve
// on an unchanged piece, up to ~16 per control-move block when the Newton
// phase gives way to breakpoint bisection.
func qpSweepBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 32, 64}
}

func newCoreMetrics(r *telemetry.Registry) coreMetrics {
	if r == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		enabled: true,
		solveSeconds: r.Histogram("mpc_solve_seconds",
			"wall-clock time of one server power controller step (excluded from golden comparisons)",
			telemetry.DefTimeBuckets()),
		qpIterations: r.Histogram("qp_iterations",
			"QP ψ evaluations (O(n) root-search steps) per MPC solve, summed over control-move blocks",
			qpSweepBuckets()),
		qpUnconverged: r.Counter("qp_unconverged_total",
			"MPC solves whose scaled KKT residual exceeded tolerance"),
		guardRejected: r.Counter("guard_rejected_samples_total",
			"power readings the measurement guard rejected"),
		guardConf: r.Gauge("guard_confidence",
			"measurement guard confidence in [0, 1]"),
		lockedCores: r.Gauge("watchdog_locked_cores",
			"batch cores excluded from the MPC move set (stuck or offline)"),
		allocMoves: r.Counter("alloc_budget_moves_total",
			"P_batch adaptation periods executed by the allocator"),
		pcbW:     r.Gauge("pcb_target_w", "effective circuit-breaker power budget"),
		pbatchW:  r.Gauge("pbatch_target_w", "batch power budget"),
		reserveW: r.Gauge("alloc_reserve_w", "interactive power reserved out of the CB budget"),
		shiftW:   r.Gauge("alloc_shift_w", "deadline shift on top of the CB affordance"),
		modeNum: r.Gauge("supervisor_mode",
			"supervisor mode (0 normal, 1 no-overload, 2 cb-only, 3 ended)"),
		upsReqW: r.Gauge("ups_request_w", "UPS discharge request for the coming tick"),
		invBreaches: r.Gauge("invariant_breaches",
			"cumulative safety-invariant breaches (CB margin + SoC floor + frequency bounds)"),
	}
}

// decisionInputs carries everything serverPowerControl saw and chose this
// control period into the trace record built at the end of Tick (the UPS
// request is only known there).
type decisionInputs struct {
	now            float64
	pfbW           float64
	targetW        float64
	deadlineFloorW float64
	urgency        float64 // max per-job required frequency / fmax
	headroomUtil   float64
	updated        bool
	refTraj        []float64
	rweights       []float64
	freqs          []float64
	lockedCount    int
	qp             bool // MPC ran (false for the PI ablation)
	qpSweeps       int
	qpConverged    bool
}

// buildDecision assembles the per-control-period trace record. It copies
// every slice: the trace must not alias live controller state.
func (s *SprintCon) buildDecision(in *decisionInputs, upsReqW, socNow float64) *telemetry.Decision {
	d := &telemetry.Decision{
		T:      in.now,
		Policy: s.Name(),
		Mode:   s.mode.String(),
		Alloc: &telemetry.AllocDecision{
			PCbW:            telemetry.F(s.curPCb),
			PBatchW:         telemetry.F(in.targetW),
			ReserveW:        s.allocator.InteractiveReserveW(),
			ShiftW:          s.allocator.DeadlineShiftW(),
			DeadlineFloorW:  in.deadlineFloorW,
			HeadroomUtil:    in.headroomUtil,
			DeadlineUrgency: in.urgency,
			Updated:         in.updated,
		},
		MPC: &telemetry.MPCDecision{
			PfbW:        in.pfbW,
			TargetW:     in.targetW,
			RefTrajW:    append([]float64(nil), in.refTraj...),
			RWeights:    append([]float64(nil), in.rweights...),
			FreqsGHz:    append([]float64(nil), in.freqs...),
			QPSweeps:    in.qpSweeps,
			QPConverged: in.qpConverged,
			LockedCores: in.lockedCount,
			KWPerGHz:    s.kModel,
		},
		UPS: &telemetry.UPSDecision{RequestW: upsReqW, SoC: socNow},
	}
	for _, f := range in.freqs {
		if f <= s.fmin+1e-9 {
			d.MPC.ClampedLo++
		} else if f >= s.fmax-1e-9 {
			d.MPC.ClampedHi++
		}
	}
	if s.hd.enabled() {
		d.Guard = &telemetry.GuardVerdict{
			Confidence:    s.hd.guard.Confidence(),
			Degraded:      s.hd.degraded,
			RejectedTotal: s.tm.guardRejected.Value(),
			UPSFailed:     s.hd.upsFailed,
		}
	}
	return d
}

// headroomUtil is the allocator's factor-2 input as recorded in the trace:
// interactive power over the CB headroom left beside the batch budget and
// idle share. ≥ 1 means interactive demand saturates its reserve;
// uncontrolled (+Inf) CB budgets report 0.
func headroomUtil(pcb, pbatch, idleW, pInterEst float64) float64 {
	if math.IsInf(pcb, 1) {
		return 0
	}
	head := pcb - pbatch - idleW
	if head < 1 {
		head = 1
	}
	return pInterEst / head
}

// observeActuationMetrics refreshes the watchdog gauge after a control
// period (no-op when telemetry is disabled).
func (s *SprintCon) observeActuationMetrics(env *sim.Env) {
	if !s.tm.enabled || !s.hd.enabled() {
		return
	}
	var locked int
	for i, ref := range env.Rack.BatchCores() {
		if s.hd.locked[i] || env.Rack.ServerOffline(ref.Server) {
			locked++
		}
	}
	s.tm.lockedCores.Set(float64(locked))
}
