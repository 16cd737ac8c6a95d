package control

import "sprintcon/internal/engine"

// This file holds the controllers' quiescence-digest hooks for the
// discrete-event simulation engine (DESIGN.md §15). Each method appends the
// controller's complete mutable state — every field a Step can read or
// write on the next control period — to the digest, so that two consecutive
// control periods comparing equal certifies an exact floating-point fixed
// point of that controller. Preallocated scratch (solver workspaces,
// output buffers) is excluded only where it is provably a pure function of
// the digested inputs, rebuilt from scratch on every solve.

// QuiescenceDigest appends the MPC's mutable cross-period state: the
// warm-start cache and the last solve diagnostics. The per-solve h/g/lo/hi
// vectors and the QP workspace are rebuilt in full on every Step from the
// digested inputs, so they carry no state across periods.
func (m *MPC) QuiescenceDigest(d *engine.Digest) {
	d.F64s(m.warmX)
	d.Bools(m.warmMask)
	d.Bool(m.warmOK)
	d.Int(m.last.Sweeps)
	d.Bool(m.last.Converged)
	d.F64(m.last.Objective)
	d.Bool(m.last.Warm)
}

// QuiescenceDigest appends the PI controller's integrator. A drifting
// integral keeps the digest moving, so PI-driven runs simply never open
// quiescent spans — the honest outcome for a controller without a
// fixed-point structure.
func (p *PI) QuiescenceDigest(d *engine.Digest) {
	d.F64(p.integral)
}

// QuiescenceDigest appends the UPS controller's feedback trim.
func (u *UPSController) QuiescenceDigest(d *engine.Digest) {
	d.F64(u.trim)
}

// QuiescenceDigest appends the measurement guard's filter state.
func (g *MeasurementGuard) QuiescenceDigest(d *engine.Digest) {
	d.F64(g.held)
	d.Bool(g.haveHeld)
	d.F64(g.prevRaw)
	d.Bool(g.havePrev)
	d.Int(g.identical)
	d.F64(g.confidence)
}
