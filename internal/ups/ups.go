// Package ups models the UPS battery system SprintCon uses as the second
// sprinting power source: energy capacity, state of charge, a duty-cycled
// discharge actuator (paper Section IV-C, following the charge/discharge
// circuit of [24]), depth-of-discharge accounting, and an LFP cycle-life
// model fitted to the points the paper cites from [32] (17 % DoD → >40 000
// cycles, 31 % DoD → <10 000 cycles).
package ups

import (
	"errors"
	"fmt"
	"math"
)

// Config describes a UPS battery string.
type Config struct {
	// CapacityWh is the usable energy capacity in watt-hours
	// (paper: 400 Wh — 5 minutes at the 4.8 kW rack maximum).
	CapacityWh float64
	// MaxDischargeW limits instantaneous discharge power (paper: the UPS
	// can carry the whole rack, so 4.8 kW).
	MaxDischargeW float64
	// MaxChargeW is the charger's power limit. A simulated sprint only
	// discharges, so nothing reads it; it stays for scenario files.
	MaxChargeW float64
	// DischargeEfficiency is delivered power / energy drawn (0 < η ≤ 1).
	DischargeEfficiency float64
	// DutyQuantum is the resolution of the duty-cycled discharge switch:
	// the discharge fraction of total load is rounded to a multiple of
	// this (paper: "set the duty ratio at x%"). Zero disables quantization.
	DutyQuantum float64
	// InitialSoC in [0, 1]; typically 1 at sprint start.
	InitialSoC float64
	// PeukertExponent models rate-dependent capacity: discharging above
	// PeukertRefW draws cell energy faster than the delivered power by a
	// factor (P/PeukertRefW)^(k−1). Values ≤ 1 (or a zero reference)
	// disable the effect; LFP cells are mild (k ≈ 1.05), lead-acid
	// strings much steeper (k ≈ 1.2–1.3).
	PeukertExponent float64
	PeukertRefW     float64
	// ColdDeratePerC reduces the usable capacity by this fraction per °C
	// below 25 °C (set the operating temperature with SetTemperature).
	// Zero disables temperature derating.
	ColdDeratePerC float64
}

// DefaultConfig returns the paper's evaluation UPS: 400 Wh, able to carry
// the full 4.8 kW rack, 95 % discharge efficiency, 1 % duty quantization.
func DefaultConfig() Config {
	return Config{
		CapacityWh:          400,
		MaxDischargeW:       4800,
		MaxChargeW:          0,
		DischargeEfficiency: 0.95,
		DutyQuantum:         0.01,
		InitialSoC:          1,
	}
}

// Validate reports structural errors in the configuration.
func (c Config) Validate() error {
	switch {
	case c.CapacityWh <= 0:
		return errors.New("ups: CapacityWh must be positive")
	case c.MaxDischargeW <= 0:
		return errors.New("ups: MaxDischargeW must be positive")
	case c.MaxChargeW < 0:
		return errors.New("ups: MaxChargeW must be non-negative")
	case c.DischargeEfficiency <= 0 || c.DischargeEfficiency > 1:
		return errors.New("ups: DischargeEfficiency must be in (0, 1]")
	case c.DutyQuantum < 0 || c.DutyQuantum > 1:
		return errors.New("ups: DutyQuantum must be in [0, 1]")
	case c.InitialSoC < 0 || c.InitialSoC > 1:
		return errors.New("ups: InitialSoC must be in [0, 1]")
	case c.PeukertExponent < 0 || (c.PeukertExponent > 1 && c.PeukertRefW <= 0):
		return errors.New("ups: PeukertExponent > 1 needs a positive PeukertRefW")
	case c.ColdDeratePerC < 0 || c.ColdDeratePerC > 0.2:
		return errors.New("ups: ColdDeratePerC must be in [0, 0.2]")
	}
	return nil
}

// UPS is the mutable state of one battery string.
type UPS struct {
	cfg          Config
	energyWh     float64 // remaining usable energy
	minEnergyWh  float64 // lowest energy reached this cycle
	dischargedWh float64 // cumulative energy drawn this cycle
	floorWh      float64 // energy made unusable by temperature derating
}

// New returns a UPS at its configured initial state of charge.
func New(cfg Config) (*UPS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := cfg.CapacityWh * cfg.InitialSoC
	return &UPS{cfg: cfg, energyWh: e, minEnergyWh: e}, nil
}

// Config returns the UPS configuration.
func (u *UPS) Config() Config { return u.cfg }

// SoC returns the state of charge in [0, 1].
func (u *UPS) SoC() float64 { return u.energyWh / u.cfg.CapacityWh }

// EnergyWh returns the remaining usable energy in watt-hours.
func (u *UPS) EnergyWh() float64 { return u.energyWh }

// Depleted reports whether the battery can no longer deliver power.
func (u *UPS) Depleted() bool { return u.energyWh <= u.floorWh }

// SetTemperature sets the cell temperature in °C. Below 25 °C the usable
// capacity shrinks by ColdDeratePerC per degree (no effect if derating is
// disabled); above 25 °C there is no bonus.
func (u *UPS) SetTemperature(c float64) {
	if u.cfg.ColdDeratePerC == 0 {
		return
	}
	cold := math.Max(0, 25-c)
	frac := math.Min(0.95, cold*u.cfg.ColdDeratePerC)
	u.floorWh = frac * u.cfg.CapacityWh
}

// peukertFactor returns how much faster than the delivered power the cells
// drain at delivery power p.
func (u *UPS) peukertFactor(p float64) float64 {
	k := u.cfg.PeukertExponent
	if k <= 1 || u.cfg.PeukertRefW <= 0 || p <= u.cfg.PeukertRefW {
		return 1
	}
	return math.Pow(p/u.cfg.PeukertRefW, k-1)
}

// DoD returns the depth of discharge of the current cycle: the maximum
// depletion below full capacity reached so far, as a fraction of
// capacity. This is the quantity in the paper's Fig. 8(b).
func (u *UPS) DoD() float64 {
	return (u.cfg.CapacityWh - u.minEnergyWh) / u.cfg.CapacityWh
}

// DischargedWh returns the cumulative energy drawn from the battery this
// cycle (total use of stored energy, "demand of energy storage" in the
// paper's abstract).
func (u *UPS) DischargedWh() float64 { return u.dischargedWh }

// Discharge requests that the UPS deliver requestW of the rack's totalW
// demand for dt seconds, and returns the power actually delivered after
// duty-cycle quantization, the discharge power limit, and the remaining
// energy. totalW bounds the delivery (the UPS cannot push more power than
// the load draws).
func (u *UPS) Discharge(requestW, totalW, dt float64) float64 {
	if dt < 0 {
		panic(fmt.Sprintf("ups: negative dt %g", dt))
	}
	if requestW <= 0 || totalW <= 0 || u.Depleted() {
		return 0
	}
	p := math.Min(requestW, totalW)
	p = math.Min(p, u.cfg.MaxDischargeW)
	// Duty-cycled switch: the discharge fraction of the total load is
	// quantized (paper: duty ratio x% of total power consumption).
	if q := u.cfg.DutyQuantum; q > 0 {
		duty := p / totalW
		duty = math.Round(duty/q) * q
		if duty > 1 {
			duty = 1
		}
		p = duty * totalW
		p = math.Min(p, u.cfg.MaxDischargeW)
	}
	if p <= 0 {
		return 0
	}
	// Energy drawn from cells exceeds energy delivered by 1/η, and by
	// the Peukert factor at high discharge rates.
	drawWh := p * dt / 3600 / u.cfg.DischargeEfficiency * u.peukertFactor(p)
	if usable := u.energyWh - u.floorWh; drawWh > usable {
		// Partial delivery in the step that empties the battery.
		frac := usable / drawWh
		p *= frac
		drawWh = usable
	}
	u.energyWh -= drawWh
	u.dischargedWh += drawWh
	if u.energyWh < u.minEnergyWh {
		u.minEnergyWh = u.energyWh
	}
	return p
}

// --- LFP cycle-life model -------------------------------------------------

// Cycle-life fit constants: cycles(DoD) = lfpA · DoD^(−lfpB), fitted to the
// two points the paper quotes from Kontorinis et al. [32]:
// DoD 17 % → ≈40 000 cycles and DoD 31 % → ≈10 000 cycles.
const (
	lfpA = 658.0
	lfpB = 2.32
	// MaxCycleLife caps the fit for very shallow discharges.
	MaxCycleLife = 100000
	// ChemicalLifeYears is the calendar life of LFP cells regardless of
	// cycling (the paper: "10 years, which equals the chemical lifetime").
	ChemicalLifeYears = 10
)

// CycleLife returns the number of charge/discharge cycles an LFP battery
// sustains at the given depth of discharge (fraction in (0, 1]).
func CycleLife(dod float64) float64 {
	if dod <= 0 {
		return MaxCycleLife
	}
	if dod > 1 {
		dod = 1
	}
	c := lfpA * math.Pow(dod, -lfpB)
	if c > MaxCycleLife {
		return MaxCycleLife
	}
	return c
}

// LifetimeYears returns the expected battery service life in years when
// cycled at the given DoD cyclesPerDay times per day, capped by the
// chemical calendar life.
func LifetimeYears(dod float64, cyclesPerDay float64) float64 {
	if cyclesPerDay <= 0 {
		return ChemicalLifeYears
	}
	years := CycleLife(dod) / cyclesPerDay / 365
	return math.Min(years, ChemicalLifeYears)
}

// ReplacementsOver returns how many battery replacements are needed to keep
// cycling at the given DoD and rate for horizon years (0 if the pack
// outlives the horizon).
func ReplacementsOver(horizonYears, dod, cyclesPerDay float64) int {
	life := LifetimeYears(dod, cyclesPerDay)
	if life <= 0 {
		return 0
	}
	n := int(math.Ceil(horizonYears/life)) - 1
	if n < 0 {
		return 0
	}
	return n
}
