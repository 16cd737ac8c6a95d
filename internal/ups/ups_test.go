package ups

import (
	"math"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *UPS {
	t.Helper()
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero capacity", func(c *Config) { c.CapacityWh = 0 }},
		{"zero discharge", func(c *Config) { c.MaxDischargeW = 0 }},
		{"negative charge", func(c *Config) { c.MaxChargeW = -1 }},
		{"bad efficiency", func(c *Config) { c.DischargeEfficiency = 1.2 }},
		{"bad quantum", func(c *Config) { c.DutyQuantum = 2 }},
		{"bad soc", func(c *Config) { c.InitialSoC = -0.1 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDischargeDrainsEnergy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DischargeEfficiency = 1
	cfg.DutyQuantum = 0
	u := mustNew(t, cfg)
	// 4.8 kW for 5 minutes = 400 Wh: exactly the capacity.
	for s := 0; s < 300; s++ {
		got := u.Discharge(4800, 4800, 1)
		if s < 299 && got != 4800 {
			t.Fatalf("s=%d delivered %v, want 4800", s, got)
		}
	}
	if !u.Depleted() && u.EnergyWh() > 1e-6 {
		t.Fatalf("battery should be empty, has %v Wh", u.EnergyWh())
	}
	if math.Abs(u.DoD()-1) > 1e-9 {
		t.Fatalf("DoD = %v, want 1", u.DoD())
	}
	if math.Abs(u.DischargedWh()-400) > 1e-6 {
		t.Fatalf("DischargedWh = %v, want 400", u.DischargedWh())
	}
}

func TestDischargeRespectsPowerLimit(t *testing.T) {
	u := mustNew(t, DefaultConfig())
	if got := u.Discharge(10000, 10000, 1); got > u.Config().MaxDischargeW+1e-9 {
		t.Fatalf("delivered %v above limit %v", got, u.Config().MaxDischargeW)
	}
}

func TestDischargeBoundedByTotalLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DutyQuantum = 0
	u := mustNew(t, cfg)
	if got := u.Discharge(3000, 1000, 1); got > 1000+1e-9 {
		t.Fatalf("delivered %v, cannot exceed the 1000 W load", got)
	}
}

func TestDutyQuantization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DutyQuantum = 0.05 // 5 % steps
	cfg.DischargeEfficiency = 1
	u := mustNew(t, cfg)
	got := u.Discharge(330, 1000, 1) // 33 % → rounds to 35 %
	if math.Abs(got-350) > 1e-9 {
		t.Fatalf("quantized delivery = %v, want 350", got)
	}
}

func TestDischargeEfficiencyDrawsMoreThanDelivered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DischargeEfficiency = 0.5
	cfg.DutyQuantum = 0
	u := mustNew(t, cfg)
	before := u.EnergyWh()
	delivered := u.Discharge(1800, 1800, 3600) // 1 hour at 1.8 kW
	drawn := before - u.EnergyWh()
	if delivered <= 0 {
		t.Fatal("no power delivered")
	}
	if math.Abs(drawn-2*delivered*1/1) > 400 {
		// With η = 0.5 the cells supply twice the delivered energy until
		// they empty; here 1.8 kWh demand empties the 400 Wh pack.
		t.Fatalf("drawn %v Wh for delivered %v W·h", drawn, delivered)
	}
	if !u.Depleted() {
		t.Fatal("pack should be depleted")
	}
}

func TestPartialDeliveryOnDepletion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DischargeEfficiency = 1
	cfg.DutyQuantum = 0
	cfg.CapacityWh = 1 // tiny pack: 3600 J
	u := mustNew(t, cfg)
	got := u.Discharge(4800, 4800, 10) // wants 13.3 Wh, has 1 Wh
	want := 1.0 * 3600 / 10            // average power over the step
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("partial delivery %v, want %v", got, want)
	}
	if !u.Depleted() {
		t.Fatal("pack should be empty")
	}
	if got2 := u.Discharge(100, 100, 1); got2 != 0 {
		t.Fatalf("empty pack delivered %v", got2)
	}
}

func TestDoDTracksDeepestPoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DischargeEfficiency = 1
	cfg.DutyQuantum = 0
	u := mustNew(t, cfg)
	u.Discharge(4800, 4800, 75) // 100 Wh → DoD 25 %
	if math.Abs(u.DoD()-0.25) > 1e-6 {
		t.Fatalf("DoD = %v, want 0.25", u.DoD())
	}
	u.Discharge(4800, 4800, 37.5) // 50 Wh more → DoD 37.5 %
	if math.Abs(u.DoD()-0.375) > 1e-6 {
		t.Fatalf("DoD after second discharge = %v, want 0.375", u.DoD())
	}
}

func TestPeukertDrawsMoreAtHighRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DischargeEfficiency = 1
	cfg.DutyQuantum = 0
	cfg.PeukertExponent = 1.2
	cfg.PeukertRefW = 1000
	u := mustNew(t, cfg)
	before := u.EnergyWh()
	delivered := u.Discharge(4000, 4000, 60)
	drawn := before - u.EnergyWh()
	deliveredWh := delivered * 60 / 3600
	// 4 kW is 4× the reference: draw multiplier 4^0.2 ≈ 1.32.
	want := deliveredWh * math.Pow(4, 0.2)
	if math.Abs(drawn-want) > 0.01*want {
		t.Fatalf("drawn %v Wh for %v Wh delivered, want ≈%v", drawn, deliveredWh, want)
	}
	// At or below the reference rate the effect vanishes.
	u2 := mustNew(t, cfg)
	before = u2.EnergyWh()
	delivered = u2.Discharge(1000, 1000, 60)
	drawn = before - u2.EnergyWh()
	if math.Abs(drawn-delivered*60/3600) > 1e-9 {
		t.Fatalf("at the reference rate Peukert must be neutral: drawn %v", drawn)
	}
}

func TestPeukertValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PeukertExponent = 1.2 // without a reference power
	if _, err := New(cfg); err == nil {
		t.Fatal("Peukert without reference should error")
	}
}

func TestColdDeratingShrinksUsableEnergy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DischargeEfficiency = 1
	cfg.DutyQuantum = 0
	cfg.ColdDeratePerC = 0.01 // 1 %/°C below 25
	u := mustNew(t, cfg)
	u.SetTemperature(5) // 20° cold → 20 % of capacity unusable
	var delivered float64
	for i := 0; i < 600; i++ {
		delivered += u.Discharge(4800, 4800, 1) / 3600
	}
	if !u.Depleted() {
		t.Fatal("cold pack should deplete early")
	}
	want := 0.8 * cfg.CapacityWh
	if math.Abs(delivered-want) > 1 {
		t.Fatalf("cold pack delivered %v Wh, want ≈%v", delivered, want)
	}
	// Warming it back up frees the reserve.
	u.SetTemperature(25)
	if u.Depleted() {
		t.Fatal("warmed pack has usable energy again")
	}
	if _, err := New(Config{CapacityWh: 1, MaxDischargeW: 1, DischargeEfficiency: 1, ColdDeratePerC: 0.5}); err == nil {
		t.Fatal("absurd derate should fail validation")
	}
}

func TestCycleLifeMatchesPaperPoints(t *testing.T) {
	// Paper Section VII-D: DoD 17 % → >40 000 cycles; DoD 31 % → <10 000.
	if c := CycleLife(0.17); c <= 40000 {
		t.Fatalf("CycleLife(0.17) = %v, want > 40000", c)
	}
	if c := CycleLife(0.31); c >= 10000 {
		t.Fatalf("CycleLife(0.31) = %v, want < 10000", c)
	}
}

func TestCycleLifeMonotone(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.5} {
		c := CycleLife(d)
		if c > prev {
			t.Fatalf("cycle life not non-increasing at DoD %v", d)
		}
		prev = c
	}
	if CycleLife(0) != MaxCycleLife {
		t.Fatal("zero DoD should return the cap")
	}
}

func TestLifetimeYearsPaperScenario(t *testing.T) {
	// Paper: at 10 sprints/day, SprintCon (DoD 17 %) never replaces the
	// pack within the 10-year chemical life; SGCT-V1/V2 (DoD 31 %)
	// replace it 3–4 times.
	if y := LifetimeYears(0.17, 10); y < ChemicalLifeYears {
		t.Fatalf("SprintCon lifetime %v years, want chemical cap %v", y, ChemicalLifeYears)
	}
	y := LifetimeYears(0.31, 10)
	if y > 3.5 || y < 1.5 {
		t.Fatalf("baseline lifetime %v years, want ~2.7 (→ 3-4 replacements over 10y)", y)
	}
	reps := ReplacementsOver(10, 0.31, 10)
	if reps < 3 || reps > 4 {
		t.Fatalf("replacements = %d, want 3-4", reps)
	}
	if got := ReplacementsOver(10, 0.17, 10); got != 0 {
		t.Fatalf("SprintCon replacements = %d, want 0", got)
	}
}

// Property: energy is conserved — delivered/η never exceeds the drop in
// stored energy, and SoC stays within [0, 1].
func TestEnergyConservationProperty(t *testing.T) {
	f := func(requests [20]float64) bool {
		cfg := DefaultConfig()
		u, err := New(cfg)
		if err != nil {
			return false
		}
		for _, r := range requests {
			req := math.Mod(math.Abs(r), 6000)
			before := u.EnergyWh()
			delivered := u.Discharge(req, 4800, 5)
			drawn := before - u.EnergyWh()
			wantDraw := delivered * 5 / 3600 / cfg.DischargeEfficiency
			if math.Abs(drawn-wantDraw) > 1e-9 {
				return false
			}
			if u.SoC() < -1e-12 || u.SoC() > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDtPanics(t *testing.T) {
	u := mustNew(t, DefaultConfig())
	for name, fn := range map[string]func(){
		"discharge": func() { u.Discharge(1, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative dt should panic", name)
				}
			}()
			fn()
		}()
	}
}
