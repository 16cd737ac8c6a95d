// Package control implements SprintCon's feedback controllers and their
// defensive instrumentation (paper Sections IV-C and V, DESIGN.md §6 and §8):
//
//   - MPC: the model-predictive server power controller that tracks the
//     batch power budget P_batch (W) by manipulating per-core DVFS
//     frequencies (GHz), minimizing the paper's Eq. (8) cost subject to the
//     Eq. (9) frequency bounds each control period T (s).
//   - UPSController: the UPS power controller that keeps the circuit
//     breaker's delivered power at P_cb (W) by setting the battery discharge
//     to cover the excess (feedforward plus integral trim).
//   - PI: a single-loop proportional-integral power controller, retained to
//     quantify what MPC buys (ablation A1 in DESIGN.md).
//   - MeasurementGuard: the hardening layer's plausibility filter for the
//     rack power monitor (DESIGN.md §8): dropout/freeze/spike detection with
//     last-known-good and model-decay fallback, driving a confidence signal.
//   - RLS: recursive-least-squares estimation of the power-model slope K
//     (W/GHz) from observed (ΔF, Δp) pairs, for the online-estimation
//     ablation (E13).
package control

import (
	"errors"
	"fmt"
	"math"

	"sprintcon/internal/qp"
)

// MPCConfig parameterizes the server power controller.
type MPCConfig struct {
	// PredictionHorizon is L_p of Eq. (8); ControlHorizon is L_c. Both
	// count control periods (dimensionless).
	PredictionHorizon int
	ControlHorizon    int
	// PeriodS is the control period T in seconds.
	PeriodS float64
	// RefTimeConstS is τ_r of the Eq. (7) reference trajectory in seconds:
	// larger values trade convergence speed for smaller overshoot
	// (Section V-B).
	RefTimeConstS float64
	// QWeight is the tracking-error weight Q (uniform over the horizon),
	// in cost per W² of tracking error.
	QWeight float64
	// RScale converts the dimensionless per-core R weights into the cost
	// function's units, balancing watts² of tracking error against GHz²
	// of control penalty.
	RScale float64
	// KWPerGHz is the design-model slope per batch core (paper Eq. 1–4):
	// the predicted change in batch power per GHz of that core, in W/GHz.
	KWPerGHz []float64
	// FMinGHz and FMaxGHz bound every core's frequency in GHz (Eq. 9).
	FMinGHz, FMaxGHz float64
	// FullHorizon replaces the paper's prediction simplification
	// ("the same operation will continue") with a true receding-horizon
	// optimization over ControlHorizon *distinct* moves. The cumulative
	// moves z_h = Σ_{i≤h} Δ_i substitute as decision variables, so the
	// Eq. (9) bounds stay simple boxes and the same QP solver applies;
	// only the first move is actuated.
	FullHorizon bool
}

// DefaultMPCConfig returns the tuning used throughout the evaluation for a
// rack with the given per-core model slopes (W/GHz).
// With the paper's constant-move prediction simplification, the closed loop
// closes roughly Σh·e_h/Σh² ≈ 40 % of the power gap per period, settling
// well within the allocator's 30 s period at the 4 s control period.
func DefaultMPCConfig(kWPerGHz []float64) MPCConfig {
	return MPCConfig{
		PredictionHorizon: 4,
		ControlHorizon:    2,
		PeriodS:           4,
		RefTimeConstS:     2,
		QWeight:           1,
		RScale:            40,
		KWPerGHz:          kWPerGHz,
		FMinGHz:           0.4,
		FMaxGHz:           2.0,
	}
}

// Validate reports structural errors in the configuration.
func (c MPCConfig) Validate() error {
	switch {
	case c.PredictionHorizon <= 0:
		return errors.New("control: PredictionHorizon must be positive")
	case c.ControlHorizon <= 0 || c.ControlHorizon > c.PredictionHorizon:
		return errors.New("control: need 0 < ControlHorizon ≤ PredictionHorizon")
	case c.PeriodS <= 0:
		return errors.New("control: PeriodS must be positive")
	case c.RefTimeConstS <= 0:
		return errors.New("control: RefTimeConstS must be positive")
	case c.QWeight <= 0:
		return errors.New("control: QWeight must be positive")
	case c.RScale <= 0:
		return errors.New("control: RScale must be positive")
	case len(c.KWPerGHz) == 0:
		return errors.New("control: KWPerGHz must not be empty")
	case c.FMinGHz <= 0 || c.FMaxGHz <= c.FMinGHz:
		return errors.New("control: need 0 < FMin < FMax")
	}
	for i, k := range c.KWPerGHz {
		if k <= 0 {
			return fmt.Errorf("control: KWPerGHz[%d] = %g must be positive", i, k)
		}
	}
	return nil
}

// MPC is the model-predictive server power controller. Control-wise it is
// stateless between periods: following the paper's formulation, each period
// solves a fresh constrained optimization from the latest feedback
// measurement (the receding-horizon principle). The retained state never
// feeds back into control *decisions*: the last solve's diagnostics
// (LastSolve) inform only telemetry, and the warm-start cache only chooses
// where the QP's iteration starts, not where it converges.
//
// An MPC instance owns preallocated solve buffers; after the first Step a
// steady-state solve performs no heap allocation. Instances are not safe
// for concurrent use.
type MPC struct {
	cfg  MPCConfig
	last SolveStats

	// Preallocated per-solve state (the zero-alloc tick contract,
	// DESIGN.md §10). The QP's diagonal weights and bounds are per core
	// (sized n); its linear term holds one n-block per control move
	// (n·ControlHorizon for FullHorizon), as does warmX below.
	d, lo, hi []float64
	g         []float64
	next      []float64
	ws        *qp.Workspace

	// Warm-start cache: the previous period's QP solution and the locked
	// mask it was solved under. The receding-horizon problems differ only
	// by the measured gap and the shifted bounds, so the previous
	// minimizer's bound pattern is usually the new one and the solver's
	// root search starts on the right linear piece. warmOK is false until
	// the first solve and whenever the mask changes — a stuck actuator
	// being excluded, a probe rejoining, a server crashing — and the cache
	// dies with the controller, so a core-set change or a model rebuild
	// (online estimation) always re-solves cold. The warm solve converges
	// to the same minimizer within the QP's KKT tolerance; see the
	// warm-vs-cold equivalence test in the qp package.
	warmX    []float64
	warmMask []bool
	warmOK   bool
}

// SolveStats reports the diagnostics of the most recent Step, for the
// telemetry layer's qp_iterations histogram and the decision trace.
type SolveStats struct {
	// Sweeps counts the QP solver's ψ evaluations (qp.Result.Evals),
	// summed over the control-move blocks of the full-horizon variant.
	Sweeps int
	// Converged reports whether the KKT residual met tolerance.
	Converged bool
	// Objective is the QP objective at the solution.
	Objective float64
	// Warm reports whether the solve was seeded from the previous
	// period's solution.
	Warm bool
}

// LastSolve returns the diagnostics of the most recent Step (zero value
// before the first solve).
func (m *MPC) LastSolve() SolveStats { return m.last }

// ReferenceTrajectory returns the Eq. (7) reference trajectory in absolute
// watts over the prediction horizon: the exponential approach from the
// feedback power toward the target with time constant τ_r. The decision
// trace records it so an operator can see what the controller was steering
// toward, not just where it ended up. It allocates; the hot path calls it
// only when a decision trace is attached.
func (m *MPC) ReferenceTrajectory(pfbW, pTargetW float64) []float64 {
	out := make([]float64, m.cfg.PredictionHorizon)
	gap := pTargetW - pfbW
	for h := 1; h <= m.cfg.PredictionHorizon; h++ {
		out[h-1] = pfbW + gap*(1-math.Exp(-float64(h)*m.cfg.PeriodS/m.cfg.RefTimeConstS))
	}
	return out
}

// NewMPC returns a controller or an error for invalid configuration. All
// solve buffers are allocated here, once, so Step never allocates in steady
// state.
func NewMPC(cfg MPCConfig) (*MPC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.KWPerGHz)
	nv := n
	if cfg.FullHorizon {
		nv = n * cfg.ControlHorizon
	}
	return &MPC{
		cfg:      cfg,
		d:        make([]float64, n),
		lo:       make([]float64, n),
		hi:       make([]float64, n),
		g:        make([]float64, nv),
		next:     make([]float64, n),
		ws:       qp.NewWorkspace(n),
		warmX:    make([]float64, nv),
		warmMask: make([]bool, n),
	}, nil
}

// Config returns the controller configuration.
func (m *MPC) Config() MPCConfig { return m.cfg }

// Step computes the next per-core frequencies.
//
//	pfbW      — Eq. (6) feedback estimate of current batch power (W)
//	pTargetW  — the power budget P_batch from the load allocator (W)
//	freqs     — current frequency of every batch core (GHz)
//	rweights  — per-core urgency weights R_{i,j} (Section V-B),
//	            dimensionless; larger weight pulls that core harder
//	            toward peak frequency
//
// Following the paper's prediction simplification ("assuming the same
// operation will continue in the following L_p control periods"), the move
// Δf is constant over the horizon, so Eq. (8) collapses to a box-constrained
// QP in Δf, solved exactly.
//
// The returned slice is owned by the controller and overwritten by the next
// Step; callers that retain frequencies across periods must copy it.
func (m *MPC) Step(pfbW, pTargetW float64, freqs, rweights []float64) ([]float64, error) {
	return m.StepLocked(pfbW, pTargetW, freqs, rweights, nil)
}

// StepLocked is Step with an exclusion mask: cores whose locked entry is
// true are removed from the move set (their move bounds collapse to zero),
// so the optimizer spreads the power correction over the cores whose DVFS
// actuators are known to respond. A nil mask locks nothing. This is how the
// hardened policy handles a stuck actuator: commanding it is pointless, and
// pretending its moves contribute power would misallocate the budget.
func (m *MPC) StepLocked(pfbW, pTargetW float64, freqs, rweights []float64, locked []bool) ([]float64, error) {
	n := len(m.cfg.KWPerGHz)
	if len(freqs) != n || len(rweights) != n {
		return nil, fmt.Errorf("control: Step got %d freqs and %d weights for %d cores", len(freqs), len(rweights), n)
	}
	if locked != nil && len(locked) != n {
		return nil, fmt.Errorf("control: Step got %d locked flags for %d cores", len(locked), n)
	}
	if m.cfg.FullHorizon {
		return m.stepFullHorizon(pfbW, pTargetW, freqs, rweights, locked)
	}
	k := m.cfg.KWPerGHz

	// H = Σ_{h=1..Lp} Q·h²·kkᵀ + Σ_{m=1..Lc} m²·diag(R·RScale)
	// g = −Σ_{h=1..Lp} Q·h·e_h·k + Σ_{m=1..Lc} m·diag(R·RScale)·d
	// where e_h = p_r(t+h) − p_fb = (P_batch − p_fb)(1 − exp(−h·T/τ_r))
	// (Eq. 7) and d = F − F_max (how far below peak each core sits).
	// H is rank one plus a diagonal: the QP takes it as the weight
	// Q·Σh², the direction k and the diagonal, never as a matrix.
	g := m.g
	for i := range g {
		g[i] = 0
	}
	var sumH2 float64
	gap := pTargetW - pfbW
	for step := 1; step <= m.cfg.PredictionHorizon; step++ {
		hf := float64(step)
		sumH2 += hf * hf
		eh := gap * (1 - math.Exp(-hf*m.cfg.PeriodS/m.cfg.RefTimeConstS))
		axpy(-m.cfg.QWeight*hf*eh, k, g)
	}

	var sumM, sumM2 float64
	for mv := 1; mv <= m.cfg.ControlHorizon; mv++ {
		sumM += float64(mv)
		sumM2 += float64(mv) * float64(mv)
	}
	for i := 0; i < n; i++ {
		r := m.cfg.RScale * math.Max(rweights[i], 1e-6)
		m.d[i] = sumM2 * r
		g[i] += sumM * r * (freqs[i] - m.cfg.FMaxGHz)
	}
	a := [1]float64{m.cfg.QWeight * sumH2}
	return m.solve(freqs, locked, a[:])
}

// stepFullHorizon solves the receding-horizon problem with ControlHorizon
// distinct moves. Decision variables are the cumulative moves
// z_h ∈ Rⁿ (h = 1..L_c); the predicted power at horizon step h is
// p_fb + K·z_{min(h,L_c)} and the Eq. (9) bounds apply to F + z_h. No term
// couples two blocks z_h, so H is block-diagonal with one rank-one-plus-
// diagonal block per move and the QP splits into L_c independent solves.
func (m *MPC) stepFullHorizon(pfbW, pTargetW float64, freqs, rweights []float64, locked []bool) ([]float64, error) {
	n := len(m.cfg.KWPerGHz)
	lc := m.cfg.ControlHorizon
	k := m.cfg.KWPerGHz
	gap := pTargetW - pfbW

	// Tracking term: for each prediction step hp, the active block is
	// m(hp) = min(hp, Lc); accumulate Q·kkᵀ and −Q·e_hp·k there.
	var blockQ [maxControlHorizon + 1]float64 // Σ Q over steps mapped to block
	var blockE [maxControlHorizon + 1]float64 // Σ Q·e_hp over steps mapped to block
	if lc > maxControlHorizon {
		return nil, fmt.Errorf("control: ControlHorizon %d exceeds supported maximum %d", lc, maxControlHorizon)
	}
	for hp := 1; hp <= m.cfg.PredictionHorizon; hp++ {
		blk := hp
		if blk > lc {
			blk = lc
		}
		e := gap * (1 - math.Exp(-float64(hp)*m.cfg.PeriodS/m.cfg.RefTimeConstS))
		blockQ[blk] += m.cfg.QWeight
		blockE[blk] += m.cfg.QWeight * e
	}

	// Control penalty: Σ_{h=1..Lc} ||F + z_h − F_max||²_R.
	for i := 0; i < n; i++ {
		m.d[i] = m.cfg.RScale * math.Max(rweights[i], 1e-6)
	}
	for blk := 1; blk <= lc; blk++ {
		off := (blk - 1) * n
		for i := 0; i < n; i++ {
			m.g[off+i] = -blockE[blk] * k[i]
			m.g[off+i] += m.d[i] * (freqs[i] - m.cfg.FMaxGHz)
		}
	}
	return m.solve(freqs, locked, blockQ[1:lc+1])
}

// maxControlHorizon bounds the stack-allocated per-block accumulators of the
// full-horizon formulation; real deployments use L_c of 2–4.
const maxControlHorizon = 32

// solve sets the Eq. (9) move bounds and solves one QP per control-move
// block b — rank-one weight a[b] on the shared k and diagonal, linear term
// g's block b — warm-starting from the cached previous solution when the
// locked mask is unchanged. It refreshes the cache and LastSolve stats and
// returns the frequencies after the first move.
func (m *MPC) solve(freqs []float64, locked []bool, a []float64) ([]float64, error) {
	n := len(freqs)
	for i := 0; i < n; i++ {
		if locked != nil && locked[i] {
			m.lo[i], m.hi[i] = 0, 0 // no move for this core
			continue
		}
		m.lo[i] = m.cfg.FMinGHz - freqs[i]
		m.hi[i] = m.cfg.FMaxGHz - freqs[i]
	}

	warm := m.warmOK && maskUnchanged(m.warmMask, locked)
	st := SolveStats{Converged: true, Warm: warm}
	next := m.next
	for b, ab := range a {
		blk := m.warmX[b*n : (b+1)*n]
		opt := qp.Options{Ws: m.ws}
		if warm {
			opt.Warm = blk
		}
		res, err := qp.Solve(qp.Problem{A: ab, K: m.cfg.KWPerGHz, D: m.d, G: m.g[b*n : (b+1)*n], Lo: m.lo, Hi: m.hi}, opt)
		if err != nil {
			m.warmOK = false
			return nil, fmt.Errorf("control: MPC QP: %w", err)
		}
		copy(blk, res.X)
		if b == 0 { // only the first (cumulative) move is actuated
			for i := 0; i < n; i++ {
				next[i] = freqs[i] + res.X[i]
				// Guard against accumulation error; the QP bounds
				// already enforce this up to tolerance.
				if next[i] < m.cfg.FMinGHz {
					next[i] = m.cfg.FMinGHz
				} else if next[i] > m.cfg.FMaxGHz {
					next[i] = m.cfg.FMaxGHz
				}
			}
		}
		st.Sweeps += res.Evals
		st.Converged = st.Converged && res.Converged
		st.Objective += res.Objective
	}
	for i := range m.warmMask {
		m.warmMask[i] = locked != nil && locked[i]
	}
	m.warmOK = true
	m.last = st
	return next, nil
}

// maskUnchanged reports whether the cached mask equals the requested one
// (nil meaning all-unlocked).
func maskUnchanged(cached []bool, locked []bool) bool {
	for i, c := range cached {
		l := locked != nil && locked[i]
		if c != l {
			return false
		}
	}
	return true
}

// axpy computes y[i] += a·x[i] over slices of equal length.
func axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}
