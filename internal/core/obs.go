package core

import (
	"math"

	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
)

// obsHook is the controller's connection to the rack's observability plane
// (nil plane = disabled, zero cost beyond one nil check per tick). The
// control-period fields are captured where serverPowerControl already has
// them and consumed at the end of Tick, so the plane sees one coherent
// observation per tick.
type obsHook struct {
	plane          *obs.Plane
	capacityWh     float64 // battery capacity, for the gauge-consistency check
	sensorGapW     float64 // |guarded reading − model estimate for the tick it describes|
	modelW         float64 // this tick's model estimate, which the next reading describes
	haveModel      bool    // modelW holds a valid estimate
	interThrottled bool    // interactive cores run below peak this tick
	actErrGHz      float64 // worst |commanded − applied| at the last control period
	urgency        float64 // deadline urgency at the last control period
	sweeps         int     // QP sweeps of the last solve
	ranControl     bool    // a control period completed this tick
}

// observeControlPeriod captures the per-period signals after actuation.
func (s *SprintCon) observeControlPeriod(next, applied []float64, urgency float64, qpRan bool) {
	if s.ob.plane == nil {
		return
	}
	var worst float64
	for i := range next {
		if e := math.Abs(next[i] - applied[i]); e > worst {
			worst = e
		}
	}
	s.ob.actErrGHz = worst
	s.ob.urgency = urgency
	s.ob.sweeps = 0
	if qpRan {
		s.ob.sweeps = s.mpc.LastSolve().Sweeps
	}
	s.ob.ranControl = true
}

// observePlane feeds the tick's controller view to the plane: the rollup
// samples, the anomaly detectors, and — on control periods — the
// control-period span causally linked to the live lease.
func (s *SprintCon) observePlane(env *sim.Env, snap sim.Snapshot, pcb float64) {
	p := s.ob.plane
	if p == nil {
		return
	}
	sig := obs.TickSignals{
		TripMargin:    1 - snap.CBThermalFraction,
		SoC:           snap.UPSSoC,
		UPSDeliveredW: snap.UPSPowerW,
		UPSCapacityWh: s.ob.capacityWh,
		Overloading:   pcb > s.scn.Breaker.RatedPower*(1+1e-9),
		Confidence:    1,
		SensorGapW:    s.ob.sensorGapW,
		ActErrGHz:     s.ob.actErrGHz,
		Urgency:       s.ob.urgency,
	}
	if s.hd.enabled() {
		sig.Confidence = s.hd.guard.Confidence()
		sig.UPSFailed = s.hd.upsFailed
		for _, l := range s.lockedMask(env) {
			if l {
				sig.LockedCores++
			}
		}
	}
	p.ObserveTick(snap.Now, sig)
	if s.ob.ranControl {
		p.ObserveControl(snap.Now, s.ob.sweeps, s.mode.String())
		s.ob.ranControl = false
	}
}
