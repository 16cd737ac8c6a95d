// Package breaker models a data-center branch circuit breaker with an
// inverse-time (I²t) thermal trip characteristic, as used by SprintCon to
// reason about how much and how long the breaker may be overloaded
// (paper Sections III and VI-A; Fig. 2).
//
// The model integrates a dimensionless thermal state θ:
//
//	dθ/dt = (P/P_rated)² − 1     while overloaded (P > P_rated)
//	dθ/dt = −Θ_trip/T_recovery   while at or below rating (θ ≥ 0)
//
// and trips when θ reaches Θ_trip. This yields the classic trip-time curve
// τ(o) = Θ_trip/(o²−1): a nonlinear, decreasing function of the overload
// degree o, matching the Bulletin 1489-A shape shown in the paper's Fig. 2.
// The default calibration follows the paper's evaluation setup: overload
// degree 1.25 sustainable for 150 s, full recovery within 300 s.
package breaker

import (
	"errors"
	"fmt"
	"math"
)

// Config calibrates a Breaker.
type Config struct {
	// RatedPower is the continuous rating in watts (paper: 3.2 kW).
	RatedPower float64
	// RefOverload and RefTripTime pin one point of the trip curve:
	// sustaining RefOverload×RatedPower trips after RefTripTime seconds.
	// The paper sustains 1.25 for 150 s; the default curve is calibrated
	// with a small safety margin at (1.25, 155 s) so that a controller
	// which ends its overload period at exactly 150 s never trips.
	RefOverload float64
	RefTripTime float64
	// RecoveryTime is the time to shed the full trip budget once power
	// returns to the rating (paper: ≤ 300 s).
	RecoveryTime float64
	// NearTripFraction is the fraction of the trip budget at which
	// NearTrip reports true and a safe controller must stop overloading.
	NearTripFraction float64
}

// DefaultConfig returns the paper's evaluation calibration.
func DefaultConfig() Config {
	return Config{
		RatedPower:       3200,
		RefOverload:      1.25,
		RefTripTime:      155,
		RecoveryTime:     300,
		NearTripFraction: 0.95,
	}
}

// Validate reports structural errors in the configuration.
func (c Config) Validate() error {
	switch {
	case c.RatedPower <= 0:
		return errors.New("breaker: RatedPower must be positive")
	case c.RefOverload <= 1:
		return errors.New("breaker: RefOverload must exceed 1")
	case c.RefTripTime <= 0:
		return errors.New("breaker: RefTripTime must be positive")
	case c.RecoveryTime <= 0:
		return errors.New("breaker: RecoveryTime must be positive")
	case c.NearTripFraction <= 0 || c.NearTripFraction > 1:
		return errors.New("breaker: NearTripFraction must be in (0, 1]")
	}
	return nil
}

// TripBudget returns the overload-seconds budget Θ_trip implied by the
// reference calibration point: sustaining overload degree o consumes
// (o²−1) of it per second. Consumers (e.g. the power load allocator) use it
// to size safe overload schedules.
func (c Config) TripBudget() float64 {
	return c.RefTripTime * (c.RefOverload*c.RefOverload - 1)
}

// Breaker is the mutable thermal state of one circuit breaker.
type Breaker struct {
	cfg     Config
	budget  float64 // Θ_trip
	theta   float64 // accumulated thermal state in [0, budget]
	tripped bool
	trips   int // lifetime trip count
}

// New returns a cold breaker. It returns an error for invalid configs.
func New(cfg Config) (*Breaker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Breaker{cfg: cfg, budget: cfg.TripBudget()}, nil
}

// Config returns the breaker's configuration.
func (b *Breaker) Config() Config { return b.cfg }

// RatedPower returns the continuous rating in watts.
func (b *Breaker) RatedPower() float64 { return b.cfg.RatedPower }

// Step advances the thermal model by dt seconds with the given delivered
// power and returns the power actually conducted: the full demand while
// closed, zero once tripped. A trip takes effect at the end of the step in
// which the budget is exhausted.
func (b *Breaker) Step(powerW, dt float64) float64 {
	if dt < 0 {
		panic(fmt.Sprintf("breaker: negative dt %g", dt))
	}
	if b.tripped {
		return 0
	}
	o := powerW / b.cfg.RatedPower
	if o > 1 {
		b.theta += dt * (o*o - 1)
	} else {
		b.theta -= dt * b.budget / b.cfg.RecoveryTime
		if b.theta < 0 {
			b.theta = 0
		}
	}
	if b.theta >= b.budget {
		b.theta = b.budget
		b.tripped = true
		b.trips++
		return powerW // the tripping step still conducted
	}
	return powerW
}

// Tripped reports whether the breaker is open.
func (b *Breaker) Tripped() bool { return b.tripped }

// Trips returns the lifetime trip count.
func (b *Breaker) Trips() int { return b.trips }

// ThermalFraction returns θ/Θ_trip in [0, 1].
func (b *Breaker) ThermalFraction() float64 { return b.theta / b.budget }

// NearTrip reports whether the thermal state has crossed the configured
// near-trip fraction; a safe controller must stop overloading now.
func (b *Breaker) NearTrip() bool {
	return b.theta >= b.cfg.NearTripFraction*b.budget
}

// TripTime returns the time in seconds the breaker would sustain a constant
// overload degree o starting cold; +Inf for o ≤ 1. This is the curve of the
// paper's Fig. 2.
func (b *Breaker) TripTime(o float64) float64 {
	if o <= 1 {
		return math.Inf(1)
	}
	return b.budget / (o*o - 1)
}

// CanReclose reports whether a tripped breaker has cooled enough to close
// again (θ back to zero). Real breakers require a manual or motorized
// reclose; the simulation models that as Reclose after cooling.
func (b *Breaker) CanReclose() bool { return b.tripped && b.theta <= 0 }

// Cool advances recovery for a tripped (open) breaker by dt seconds.
func (b *Breaker) Cool(dt float64) {
	if !b.tripped {
		return
	}
	b.theta -= dt * b.budget / b.cfg.RecoveryTime
	if b.theta < 0 {
		b.theta = 0
	}
}

// Reclose closes a tripped breaker. It returns an error if the breaker has
// not cooled completely.
func (b *Breaker) Reclose() error {
	if !b.tripped {
		return nil
	}
	if b.theta > 0 {
		return fmt.Errorf("breaker: reclose before cooling complete (thermal fraction %.2f)", b.ThermalFraction())
	}
	b.tripped = false
	return nil
}

// Reset returns the breaker to cold, closed state (test support).
func (b *Breaker) Reset() {
	b.theta = 0
	b.tripped = false
}
