package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBatchSpecValidate(t *testing.T) {
	good := BatchSpec{Name: "x", MemBound: 0.2, Util: 0.9, PeakSeconds: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]BatchSpec{
		"no name":       {MemBound: 0.2, Util: 0.9, PeakSeconds: 100},
		"membound 1":    {Name: "x", MemBound: 1, Util: 0.9, PeakSeconds: 100},
		"zero util":     {Name: "x", MemBound: 0.2, Util: 0, PeakSeconds: 100},
		"zero duration": {Name: "x", MemBound: 0.2, Util: 0.9},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSpecCPU2006Catalog(t *testing.T) {
	specs := SpecCPU2006()
	if len(specs) != 8 {
		t.Fatalf("want 8 benchmarks, got %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate name %s", s.Name)
		}
		names[s.Name] = true
	}
	// The paper's set: CINT 400/401/403/429 + CFP 433/444/447/450.
	for _, want := range []string{"400.perlbench", "401.bzip2", "403.gcc", "429.mcf", "433.milc", "444.namd", "447.dealII", "450.soplex"} {
		if !names[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
	if len(Fig1Workloads()) != 6 {
		t.Fatal("Fig. 1 uses six workloads")
	}
}

func TestRateProperties(t *testing.T) {
	s := BatchSpec{Name: "x", MemBound: 0.3, Util: 0.9, PeakSeconds: 100}
	if got := s.Rate(2.0, 2.0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Rate at peak = %v, want 1", got)
	}
	if s.Rate(0, 2.0) != 0 {
		t.Fatal("Rate at f=0 must be 0")
	}
	if s.Rate(3.0, 2.0) != 1 {
		t.Fatal("Rate above peak clamps to 1")
	}
	// Monotone increasing in f.
	prev := 0.0
	for f := 0.4; f <= 2.0; f += 0.1 {
		r := s.Rate(f, 2.0)
		if r <= prev {
			t.Fatalf("Rate not increasing at f=%v", f)
		}
		prev = r
	}
}

func TestMemoryBoundWorkloadsLessFrequencySensitive(t *testing.T) {
	// Fig. 1's premise: compute-bound workloads speed up more with
	// frequency than memory-bound ones.
	namd := BatchSpec{Name: "444.namd", MemBound: 0.07, Util: 1, PeakSeconds: 1}
	mcf := BatchSpec{Name: "429.mcf", MemBound: 0.58, Util: 1, PeakSeconds: 1}
	suNamd := namd.Speedup(2.0, 0.4, 2.0)
	suMcf := mcf.Speedup(2.0, 0.4, 2.0)
	if suNamd <= suMcf {
		t.Fatalf("compute-bound speedup %v should exceed memory-bound %v", suNamd, suMcf)
	}
	if suNamd < 3 { // nearly frequency-proportional: 2.0/0.4 = 5×
		t.Fatalf("namd speedup %v implausibly low", suNamd)
	}
	if suMcf > 3.0 { // far below the 5× frequency ratio
		t.Fatalf("mcf speedup %v implausibly high", suMcf)
	}
}

func TestBatchJobLifecycle(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 100}
	j, err := NewBatchJob(spec, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// At peak frequency, 100 peak-seconds take 100 s.
	j.Advance(2.0, 2.0, 60, 0)
	if got := j.Progress(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("progress = %v, want 0.6", got)
	}
	if j.Completed() {
		t.Fatal("not yet complete")
	}
	j.Advance(2.0, 2.0, 60, 60)
	if !j.Completed() {
		t.Fatal("should be complete")
	}
	if got := j.CompletionTime(); math.Abs(got-100) > 1e-6 {
		t.Fatalf("completion time = %v, want 100", got)
	}
	if j.completed != 1 {
		t.Fatalf("completions = %d", j.completed)
	}
	// Re-execution restarted: 20 s of the new run done.
	if got := j.Progress(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("restarted progress = %v, want 0.2", got)
	}
	if j.MissedDeadline(120) {
		t.Fatal("deadline 1000 not missed at t=120")
	}
}

func TestBatchJobHalfFrequencyTakesLonger(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0.5, Util: 1, PeakSeconds: 100}
	j, _ := NewBatchJob(spec, 0, 10000)
	// At f = 1.0 (half of 2.0): rate = 1/(0.5 + 0.5·2) = 1/1.5.
	j.Advance(1.0, 2.0, 150, 0)
	if !j.Completed() {
		t.Fatalf("rate %v · 150 s should exactly finish 100 peak-seconds", spec.Rate(1.0, 2.0))
	}
	if math.Abs(j.CompletionTime()-150) > 1e-6 {
		t.Fatalf("completion at %v, want 150", j.CompletionTime())
	}
}

func TestBatchJobMultipleCompletionsInOneStep(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 10}
	j, _ := NewBatchJob(spec, 0, 1000)
	j.Advance(2.0, 2.0, 35, 0) // 3.5 executions
	if j.completed != 3 {
		t.Fatalf("completions = %d, want 3", j.completed)
	}
	if math.Abs(j.Progress()-0.5) > 1e-9 {
		t.Fatalf("progress = %v, want 0.5", j.Progress())
	}
	if math.Abs(j.CompletionTime()-10) > 1e-6 {
		t.Fatalf("first completion at %v, want 10", j.CompletionTime())
	}
}

func TestWorkDone(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 10}
	j, _ := NewBatchJob(spec, 0, 1000)
	j.Advance(2.0, 2.0, 35, 0) // 3.5 executions
	if got := j.WorkDone(); math.Abs(got-35) > 1e-9 {
		t.Fatalf("WorkDone = %v, want 35 peak-seconds", got)
	}
	// Work done is invariant to re-execution bookkeeping: advance again.
	j.Advance(2.0, 2.0, 5, 35)
	if got := j.WorkDone(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("WorkDone = %v, want 40", got)
	}
}

func TestMissedDeadline(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 100}
	j, _ := NewBatchJob(spec, 0, 50)
	j.Advance(2.0, 2.0, 100, 0) // completes at t=100 > deadline 50
	if !j.MissedDeadline(100) {
		t.Fatal("completion after deadline should count as missed")
	}
	j2, _ := NewBatchJob(spec, 0, 50)
	if !j2.MissedDeadline(60) {
		t.Fatal("incomplete past deadline should count as missed")
	}
	if j2.MissedDeadline(40) {
		t.Fatal("still before deadline")
	}
}

func TestRemainingSeconds(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 100}
	j, _ := NewBatchJob(spec, 0, 200)
	if got := j.RemainingSeconds(2.0, 2.0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("RemainingSeconds at peak = %v", got)
	}
	if got := j.RemainingSeconds(1.0, 2.0); math.Abs(got-200) > 1e-9 {
		t.Fatalf("RemainingSeconds at half (compute-bound) = %v, want 200", got)
	}
	if !math.IsInf(j.RemainingSeconds(0, 2.0), 1) {
		t.Fatal("RemainingSeconds at f=0 must be +Inf")
	}
}

func TestRWeightPaperExample(t *testing.T) {
	// Paper Section V-B: 80 % executed, 6 minutes used, 4 minutes left
	// before the deadline → R = (1 − 0.8)/(4/(6+4)) = 0.5.
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 600}
	j, _ := NewBatchJob(spec, 0, 600) // 10-minute deadline from t=0
	j.Advance(2.0, 2.0, 360, 0)       // 6 minutes at peak → but that is 60 % progress
	// Force the paper's exact state: 80 % progress at t = 360.
	j.remaining = 0.2 * j.totalWork
	if got := j.RWeight(360); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("RWeight = %v, want 0.5 (paper example)", got)
	}
}

func TestRWeightUrgencyOrdering(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 600}
	ahead, _ := NewBatchJob(spec, 0, 600)
	behind, _ := NewBatchJob(spec, 0, 600)
	ahead.remaining = 0.1 * ahead.totalWork   // 90 % done
	behind.remaining = 0.9 * behind.totalWork // 10 % done
	if ahead.RWeight(300) >= behind.RWeight(300) {
		t.Fatal("the job that is behind must get the larger R weight")
	}
	// Past deadline → maximal urgency.
	if got := behind.RWeight(700); got != 100 {
		t.Fatalf("past-deadline weight = %v, want 100", got)
	}
	// Completed jobs have minimal urgency.
	done, _ := NewBatchJob(spec, 0, 600)
	done.Advance(2.0, 2.0, 600, 0)
	if got := done.RWeight(300); got != 0.1 {
		t.Fatalf("completed-job weight = %v, want 0.1", got)
	}
}

func TestScaleWork(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 100}
	j, _ := NewBatchJob(spec, 0, 1000)
	j.ScaleWork(2)
	j.Advance(2.0, 2.0, 100, 0)
	if j.Completed() {
		t.Fatal("doubled work should not be complete after 100 s at peak")
	}
	if math.Abs(j.Progress()-0.5) > 1e-9 {
		t.Fatalf("progress = %v, want 0.5", j.Progress())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScaleWork after execution should panic")
		}
	}()
	j.ScaleWork(2)
}

func TestNewBatchJobValidation(t *testing.T) {
	spec := BatchSpec{Name: "x", MemBound: 0, Util: 1, PeakSeconds: 100}
	if _, err := NewBatchJob(spec, 10, 10); err == nil {
		t.Fatal("deadline == start should fail")
	}
	if _, err := NewBatchJob(BatchSpec{}, 0, 10); err == nil {
		t.Fatal("invalid spec should fail")
	}
}

// Property: executing a job to completion at any constant frequency takes
// exactly remaining/rate seconds (work accounting is exact).
func TestBatchCompletionTimeProperty(t *testing.T) {
	f := func(rawF, rawBeta float64) bool {
		fGHz := 0.4 + math.Mod(math.Abs(rawF), 1.6)
		beta := math.Mod(math.Abs(rawBeta), 0.9)
		spec := BatchSpec{Name: "p", MemBound: beta, Util: 1, PeakSeconds: 50}
		j, err := NewBatchJob(spec, 0, 1e9)
		if err != nil {
			return false
		}
		predicted := j.RemainingSeconds(fGHz, 2.0)
		var now float64
		dt := 0.5
		for !j.Completed() {
			j.Advance(fGHz, 2.0, dt, now)
			now += dt
			if now > 10*predicted+10 {
				return false
			}
		}
		return math.Abs(j.CompletionTime()-predicted) <= dt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
