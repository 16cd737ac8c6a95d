package rack

import (
	"math"
	"testing"

	"sprintcon/internal/cpu"
	"sprintcon/internal/workload"
)

func mustNew(t *testing.T) *Rack {
	t.Helper()
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero servers", func(c *Config) { c.NumServers = 0 }},
		{"too many cores", func(c *Config) { c.InteractiveCoresPerServer = 8; c.BatchCoresPerServer = 8 }},
		{"zero batch cores", func(c *Config) { c.BatchCoresPerServer = 0 }},
		{"negative noise", func(c *Config) { c.MonitorNoiseStd = -1 }},
		{"bad server", func(c *Config) { c.ServerParams.IdleW = 0 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestTopology(t *testing.T) {
	r := mustNew(t)
	if len(r.Servers()) != 16 {
		t.Fatalf("servers = %d", len(r.Servers()))
	}
	if len(r.InteractiveCores()) != 64 || len(r.BatchCores()) != 64 {
		t.Fatalf("core partition %d/%d, want 64/64", len(r.InteractiveCores()), len(r.BatchCores()))
	}
	// Interactive cores start at peak; batch cores at the floor.
	for _, ref := range r.InteractiveCores() {
		if f := r.Servers()[ref.Server].CPU().Core(ref.Core).Freq; f != 2.0 {
			t.Fatalf("interactive core %v at %v, want 2.0", ref, f)
		}
	}
	for _, ref := range r.BatchCores() {
		if f := r.Servers()[ref.Server].CPU().Core(ref.Core).Freq; f != 0.4 {
			t.Fatalf("batch core %v at %v, want 0.4", ref, f)
		}
	}
}

func TestRackMaxPowerMatchesPaper(t *testing.T) {
	// Paper: 16 servers × 300 W = 4.8 kW maximum.
	cfg := DefaultConfig()
	cfg.MonitorNoiseStd = 0
	cfg.UtilJitterStd = 0
	cfg.ServerParams.FanW = 0
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Servers() {
		for c := 0; c < 8; c++ {
			s.CPU().SetFreq(c, 2.0)
			s.CPU().SetUtil(c, 1)
		}
	}
	if got := r.TruePower(); math.Abs(got-4800) > 1e-6 {
		t.Fatalf("max rack power = %v, want 4800", got)
	}
}

func TestRackIdlePower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServerParams.FanW = 0
	r, _ := New(cfg)
	if got := r.TruePower(); math.Abs(got-16*150) > 1e-6 {
		t.Fatalf("idle rack power = %v, want 2400", got)
	}
}

func TestBindAndAdvanceJobs(t *testing.T) {
	r := mustNew(t)
	specs := workload.SpecCPU2006()
	for i, ref := range r.BatchCores() {
		j, err := workload.NewBatchJob(specs[i%len(specs)], 0, 900)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.BindJob(ref, j); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.Jobs()) != 64 {
		t.Fatalf("jobs = %d", len(r.Jobs()))
	}
	// Run all batch cores at peak for 60 s; every job must make progress.
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 2.0
	}
	if _, err := r.SetBatchFreqsInto(freqs, freqs); err != nil {
		t.Fatal(err)
	}
	r.AdvanceBatch(60, 0)
	for i, j := range r.Jobs() {
		if j.Progress() <= 0 {
			t.Fatalf("job %d made no progress", i)
		}
	}
	// Batch utilization reflects the specs.
	for _, ref := range r.BatchCores() {
		u := r.Servers()[ref.Server].CPU().Core(ref.Core).Util
		if u < 0.9 {
			t.Fatalf("batch core %v util %v, want spec value ≥0.9", ref, u)
		}
	}
}

func TestBindJobRejectsNonBatchCore(t *testing.T) {
	r := mustNew(t)
	j, _ := workload.NewBatchJob(workload.SpecCPU2006()[0], 0, 900)
	if err := r.BindJob(CoreRef{Server: 0, Core: 0}, j); err == nil {
		t.Fatal("binding to an interactive core should fail")
	}
	if err := r.BindJob(CoreRef{Server: 99, Core: 0}, j); err == nil {
		t.Fatal("binding to a bad server should fail")
	}
}

func TestApplyInteractiveDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UtilJitterStd = 0
	r, _ := New(cfg)
	r.ApplyInteractiveDemand(0.7)
	for _, ref := range r.InteractiveCores() {
		if u := r.Servers()[ref.Server].CPU().Core(ref.Core).Util; math.Abs(u-0.7) > 1e-9 {
			t.Fatalf("core %v util %v, want 0.7", ref, u)
		}
	}
	r.ApplyInteractiveDemand(1.5) // saturates
	for _, ref := range r.InteractiveCores() {
		if u := r.Servers()[ref.Server].CPU().Core(ref.Core).Util; u != 1 {
			t.Fatalf("core %v util %v, want clamp to 1", ref, u)
		}
	}
}

func TestInteractiveUtilizationRisesWhenThrottled(t *testing.T) {
	// Demand is defined relative to a peak-frequency core: the same
	// request stream makes a throttled core proportionally busier.
	cfg := DefaultConfig()
	cfg.UtilJitterStd = 0
	r, _ := New(cfg)
	r.SetInteractiveFreq(1.0) // half of peak
	r.ApplyInteractiveDemand(0.3)
	for _, ref := range r.InteractiveCores() {
		u := r.Servers()[ref.Server].CPU().Core(ref.Core).Util
		if math.Abs(u-0.6) > 1e-9 {
			t.Fatalf("core %v util %v, want 0.6 (= 0.3 x 2.0/1.0)", ref, u)
		}
	}
	// Saturation: demand beyond the throttled capacity clamps to 1.
	r.ApplyInteractiveDemand(0.7)
	for _, ref := range r.InteractiveCores() {
		if u := r.Servers()[ref.Server].CPU().Core(ref.Core).Util; u != 1 {
			t.Fatalf("core %v util %v, want saturated", ref, u)
		}
	}
}

func TestSetBatchFreqsQuantizesAndValidates(t *testing.T) {
	r := mustNew(t)
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 1.234
	}
	applied, err := r.SetBatchFreqsInto(freqs, make([]float64, len(freqs)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range applied {
		if f != 1.2 {
			t.Fatalf("applied %v, want quantized 1.2", f)
		}
	}
	got := r.BatchFreqs()
	for _, f := range got {
		if f != 1.2 {
			t.Fatalf("BatchFreqs returned %v", f)
		}
	}
	if _, err := r.SetBatchFreqsInto(freqs[:3], freqs[:3]); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestMeasuredPowerNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MonitorNoiseStd = 0.01
	r, _ := New(cfg)
	truth := r.TruePower()
	var deviated bool
	for i := 0; i < 32; i++ {
		m := r.MeasuredPower()
		if math.Abs(m-truth) > 0.1*truth {
			t.Fatalf("measurement %v implausibly far from %v", m, truth)
		}
		if m != truth {
			deviated = true
		}
	}
	if !deviated {
		t.Fatal("noisy monitor never deviated from truth")
	}
	cfg.MonitorNoiseStd = 0
	r2, _ := New(cfg)
	if r2.MeasuredPower() != r2.TruePower() {
		t.Fatal("zero noise must measure exactly")
	}
}

func TestBatchFeedbackTracksTrueBatchPower(t *testing.T) {
	// Eq. (6) with exact measurement should approximate the true batch
	// power within the interactive model error.
	cfg := DefaultConfig()
	cfg.MonitorNoiseStd = 0
	cfg.UtilJitterStd = 0
	cfg.ServerParams.FanW = 0 // remove disturbance for the exactness check
	r, _ := New(cfg)
	specs := workload.SpecCPU2006()
	for i, ref := range r.BatchCores() {
		j, _ := workload.NewBatchJob(specs[i%len(specs)], 0, 900)
		r.BindJob(ref, j)
	}
	r.ApplyInteractiveDemand(0.6)
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 1.5
	}
	r.SetBatchFreqsInto(freqs, freqs)
	r.AdvanceBatch(1, 0)

	fb := r.BatchFeedback(r.TruePower())
	var truth float64
	for _, srv := range r.Servers() {
		truth += srv.PowerOfClass(cpu.Batch, r.env)
	}
	if rel := math.Abs(fb-truth) / truth; rel > 0.02 {
		t.Fatalf("feedback %v vs true batch power %v (rel err %.3f)", fb, truth, rel)
	}
}

func TestBatchFeedbackNeverNegative(t *testing.T) {
	r := mustNew(t)
	if fb := r.BatchFeedback(0); fb < 0 {
		t.Fatalf("feedback = %v, want clamped ≥ 0", fb)
	}
}

func TestRWeights(t *testing.T) {
	r := mustNew(t)
	specs := workload.SpecCPU2006()
	j, _ := workload.NewBatchJob(specs[0], 0, 600)
	r.BindJob(r.BatchCores()[0], j)
	w := r.RWeights(0)
	if len(w) != 64 {
		t.Fatalf("weights length %d", len(w))
	}
	if w[0] <= 0 {
		t.Fatalf("bound core weight %v", w[0])
	}
	if w[1] != 1 {
		t.Fatalf("unbound core weight %v, want 1", w[1])
	}
}

func TestMeanFreqNormMetrics(t *testing.T) {
	r := mustNew(t)
	if got := r.MeanInteractiveFreqNorm(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("interactive norm freq %v, want 1 (peak)", got)
	}
	if got := r.MeanBatchFreqNorm(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("batch norm freq %v, want 0.2 (0.4/2.0)", got)
	}
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 1.0
	}
	r.SetBatchFreqsInto(freqs, freqs)
	if got := r.MeanBatchFreqNorm(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("batch norm freq %v, want 0.5", got)
	}
}
