package control

import (
	"math"
	"testing"

	"sprintcon/internal/cpu"
	"sprintcon/internal/server"
)

func uniformK(n int, k float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = k
	}
	return out
}

func ones(n int) []float64 { return uniformK(n, 1) }

// linearPlant evaluates the design model p = Σ k·f + C.
func linearPlant(k []float64, freqs []float64, c float64) float64 {
	p := c
	for i := range k {
		p += k[i] * freqs[i]
	}
	return p
}

func TestMPCConfigValidate(t *testing.T) {
	good := DefaultMPCConfig(uniformK(4, 9.6))
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*MPCConfig)
	}{
		{"zero horizon", func(c *MPCConfig) { c.PredictionHorizon = 0 }},
		{"control > prediction", func(c *MPCConfig) { c.ControlHorizon = 99 }},
		{"zero period", func(c *MPCConfig) { c.PeriodS = 0 }},
		{"zero tau", func(c *MPCConfig) { c.RefTimeConstS = 0 }},
		{"zero Q", func(c *MPCConfig) { c.QWeight = 0 }},
		{"zero Rscale", func(c *MPCConfig) { c.RScale = 0 }},
		{"empty K", func(c *MPCConfig) { c.KWPerGHz = nil }},
		{"negative k", func(c *MPCConfig) { c.KWPerGHz = []float64{9, -1} }},
		{"bad bounds", func(c *MPCConfig) { c.FMinGHz = 2.0; c.FMaxGHz = 0.4 }},
	}
	for _, tc := range cases {
		cfg := DefaultMPCConfig(uniformK(4, 9.6))
		tc.mutate(&cfg)
		if _, err := NewMPC(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestMPCStepDimensionCheck(t *testing.T) {
	m, _ := NewMPC(DefaultMPCConfig(uniformK(4, 9.6)))
	if _, err := m.Step(100, 200, []float64{1, 1}, ones(4)); err == nil {
		t.Fatal("wrong freqs length should fail")
	}
	if _, err := m.Step(100, 200, ones(4), []float64{1}); err == nil {
		t.Fatal("wrong weights length should fail")
	}
}

func TestMPCRespectsFrequencyBounds(t *testing.T) {
	m, _ := NewMPC(DefaultMPCConfig(uniformK(8, 9.6)))
	// Huge positive gap: wants max frequency everywhere.
	next, err := m.Step(0, 1e6, uniformK(8, 1.0), ones(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range next {
		if f < 0.4-1e-9 || f > 2.0+1e-9 {
			t.Fatalf("core %d frequency %v out of bounds", i, f)
		}
	}
	// Huge negative gap: wants min frequency everywhere.
	next, err = m.Step(1e6, 0, uniformK(8, 1.0), ones(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range next {
		if f < 0.4-1e-9 || f > 2.0+1e-9 {
			t.Fatalf("core %d frequency %v out of bounds", i, f)
		}
	}
}

// The stability property DESIGN.md promises: the closed loop on the design
// model settles well within the allocator's 30 s period.
func TestMPCSettlesWithinAllocatorPeriod(t *testing.T) {
	n := 16
	k := uniformK(n, 9.6)
	cfg := DefaultMPCConfig(k)
	m, _ := NewMPC(cfg)
	c := 150.0
	freqs := uniformK(n, 0.4)
	target := c + 9.6*float64(n)*1.5 // reachable: mean f = 1.5

	steps := int(30 / cfg.PeriodS)
	var p float64
	for s := 0; s < steps; s++ {
		p = linearPlant(k, freqs, c)
		next, err := m.Step(p, target, freqs, ones(n))
		if err != nil {
			t.Fatal(err)
		}
		freqs = next
	}
	p = linearPlant(k, freqs, c)
	if rel := math.Abs(p-target) / target; rel > 0.03 {
		t.Fatalf("after 30 s: power %v vs target %v (rel %.3f)", p, target, rel)
	}
}

func TestMPCNoOvershootWithLargeTau(t *testing.T) {
	// Section V-B: larger τ_r → smaller overshoot. Track the step
	// response and require it to approach from below.
	n := 8
	k := uniformK(n, 9.6)
	cfg := DefaultMPCConfig(k)
	cfg.RefTimeConstS = 16
	m, _ := NewMPC(cfg)
	c := 100.0
	freqs := uniformK(n, 0.4)
	target := c + 9.6*float64(n)*1.2
	maxP := 0.0
	for s := 0; s < 40; s++ {
		p := linearPlant(k, freqs, c)
		maxP = math.Max(maxP, p)
		next, err := m.Step(p, target, freqs, ones(n))
		if err != nil {
			t.Fatal(err)
		}
		freqs = next
	}
	if maxP > target*1.02 {
		t.Fatalf("overshoot: peak %v vs target %v", maxP, target)
	}
}

func TestMPCUnreachableTargetSaturatesAtPeak(t *testing.T) {
	n := 4
	k := uniformK(n, 9.6)
	m, _ := NewMPC(DefaultMPCConfig(k))
	freqs := uniformK(n, 1.0)
	for s := 0; s < 30; s++ {
		p := linearPlant(k, freqs, 50)
		next, err := m.Step(p, 1e5, freqs, ones(n))
		if err != nil {
			t.Fatal(err)
		}
		freqs = next
	}
	for i, f := range freqs {
		if math.Abs(f-2.0) > 1e-6 {
			t.Fatalf("core %d at %v, want saturated at 2.0", i, f)
		}
	}
}

func TestMPCUrgentCoresGetMoreFrequency(t *testing.T) {
	// Section V-B: the workload with less progress / less remaining time
	// has the larger R and must receive more power when the budget is
	// scarce.
	n := 8
	k := uniformK(n, 9.6)
	m, _ := NewMPC(DefaultMPCConfig(k))
	freqs := uniformK(n, 1.2)
	weights := ones(n)
	weights[0] = 10  // far behind schedule
	weights[1] = 0.1 // nearly done
	c := 100.0
	// Scarce budget: mean frequency ≈ 1.0.
	target := c + 9.6*float64(n)*1.0
	for s := 0; s < 30; s++ {
		p := linearPlant(k, freqs, c)
		next, err := m.Step(p, target, freqs, weights)
		if err != nil {
			t.Fatal(err)
		}
		freqs = next
	}
	if freqs[0] <= freqs[1] {
		t.Fatalf("urgent core %v should run faster than relaxed core %v", freqs[0], freqs[1])
	}
	if freqs[0] <= freqs[2] || freqs[1] >= freqs[2] {
		t.Fatalf("ordering wrong: urgent %v, normal %v, relaxed %v", freqs[0], freqs[2], freqs[1])
	}
}

// Robustness (paper Section V-C / VI-A): the controller designed on the
// linear model must converge when the plant is the richer Horvath-Skadron
// measurement model with fan disturbance.
func TestMPCConvergesOnNonlinearPlant(t *testing.T) {
	params := server.DefaultParams()
	srv, err := server.New(0, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		srv.CPU().SetClass(i, cpu.Batch)
		srv.CPU().SetUtil(i, 0.95)
		srv.CPU().SetFreq(i, 0.4)
	}
	co := params.DesignCoeffs(0.9)
	m, _ := NewMPC(DefaultMPCConfig(uniformK(8, co.KWPerGHz)))
	env := server.Environment{AmbientC: 28} // off-nominal ambient

	target := 230.0 // between idle 150 and full ~300
	// The controller tracks its own commanded (continuous) frequencies;
	// the modulator quantizes to P-states. Feeding quantized values back
	// into the optimizer would deadband small corrective moves.
	cmd := uniformK(8, 0.4)
	var p float64
	for s := 0; s < 30; s++ {
		p = srv.Power(env)
		next, err := m.Step(p, target, cmd, ones(8))
		if err != nil {
			t.Fatal(err)
		}
		cmd = next
		for i := 0; i < 8; i++ {
			srv.CPU().SetFreq(i, next[i]) // quantized by the P-state table
		}
	}
	p = srv.Power(env)
	if rel := math.Abs(p-target) / target; rel > 0.05 {
		t.Fatalf("nonlinear plant: settled at %v vs target %v (rel %.3f)", p, target, rel)
	}
}
