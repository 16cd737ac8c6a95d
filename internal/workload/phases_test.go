package workload

import (
	"math"
	"testing"
)

func twoPhaseSpec() BatchSpec {
	return BatchSpec{
		Name: "2ph", MemBound: 0.3, Util: 0.9, PeakSeconds: 100,
		Phases: []Phase{
			{Frac: 0.5, MemBound: 0.0, Util: 1.0}, // pure compute
			{Frac: 0.5, MemBound: 0.6, Util: 0.8}, // memory bound
		},
	}
}

func TestPhaseValidation(t *testing.T) {
	s := twoPhaseSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := twoPhaseSpec()
	bad.Phases[0].Frac = 0.4 // fractions no longer sum to 1
	if err := bad.Validate(); err == nil {
		t.Fatal("bad fraction sum should fail")
	}
	bad = twoPhaseSpec()
	bad.Phases[1].MemBound = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("MemBound 1 should fail")
	}
	bad = twoPhaseSpec()
	bad.Phases[0].Util = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero util should fail")
	}
}

func TestEffectiveMemBound(t *testing.T) {
	s := twoPhaseSpec()
	if got := s.EffectiveMemBound(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("effective β = %v, want 0.3", got)
	}
	plain := BatchSpec{Name: "p", MemBound: 0.2, Util: 0.9, PeakSeconds: 10}
	if plain.EffectiveMemBound() != 0.2 {
		t.Fatal("single-phase effective β should be MemBound")
	}
	// The catalog's phased specs preserve their aggregate β.
	for _, spec := range SpecCPU2006() {
		if math.Abs(spec.EffectiveMemBound()-spec.MemBound) > 0.001 {
			t.Fatalf("%s: phases average to β %v, aggregate says %v",
				spec.Name, spec.EffectiveMemBound(), spec.MemBound)
		}
	}
}

func TestPhasedAdvanceMatchesAnalyticTime(t *testing.T) {
	// At f = 1.0 (half of peak 2.0): phase 1 runs at rate 1/(0+1·2)=0.5,
	// phase 2 at 1/(0.6+0.4·2)=1/1.4. Completion time for 50+50 work:
	// 50/0.5 + 50·1.4 = 100 + 70 = 170 s.
	s := twoPhaseSpec()
	j, err := NewBatchJob(s, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	predicted := j.RemainingSeconds(1.0, 2.0)
	if math.Abs(predicted-170) > 1e-9 {
		t.Fatalf("RemainingSeconds = %v, want 170", predicted)
	}
	var now float64
	for !j.Completed() {
		j.Advance(1.0, 2.0, 1, now)
		now++
		if now > 400 {
			t.Fatal("never completed")
		}
	}
	if math.Abs(j.CompletionTime()-170) > 1 {
		t.Fatalf("completed at %v, want ≈170", j.CompletionTime())
	}
}

func TestCurrentUtilTracksPhase(t *testing.T) {
	s := twoPhaseSpec()
	j, _ := NewBatchJob(s, 0, 1e9)
	if got := j.CurrentUtil(); got != 1.0 {
		t.Fatalf("phase-1 util = %v, want 1.0", got)
	}
	j.Advance(2.0, 2.0, 60, 0) // 60 peak-seconds: past the 50-work boundary
	if got := j.CurrentUtil(); got != 0.8 {
		t.Fatalf("phase-2 util = %v, want 0.8", got)
	}
}

func TestRequiredFreqPhased(t *testing.T) {
	s := twoPhaseSpec()
	j, _ := NewBatchJob(s, 0, 170) // exactly the time needed at f=1.0
	f := j.RequiredFreq(0, 2.0)
	if math.Abs(f-1.0) > 1e-9 {
		t.Fatalf("RequiredFreq = %v, want 1.0", f)
	}
	// Verify the claim: running at that frequency completes at the deadline.
	if got := j.RemainingSeconds(f, 2.0); math.Abs(got-170) > 1e-9 {
		t.Fatalf("RemainingSeconds at required freq = %v", got)
	}
	// Impossible deadlines clamp at fmax.
	j2, _ := NewBatchJob(s, 0, 10)
	if got := j2.RequiredFreq(0, 2.0); got != 2.0 {
		t.Fatalf("impossible deadline RequiredFreq = %v, want fmax", got)
	}
	// Completed jobs need nothing.
	j3, _ := NewBatchJob(s, 0, 1e9)
	j3.Advance(2.0, 2.0, 1000, 0)
	if j3.RequiredFreq(0, 2.0) != 0 {
		t.Fatal("completed job should require 0")
	}
	// A past deadline with work remaining demands fmax.
	j4, _ := NewBatchJob(s, 0, 50)
	if got := j4.RequiredFreq(60, 2.0); got != 2.0 {
		t.Fatalf("past-deadline RequiredFreq = %v", got)
	}
}

func TestRequiredFreqInvertsRateSinglePhase(t *testing.T) {
	// For a single-phase spec the required frequency runs the job at
	// exactly the rate that finishes its work at the deadline: 100 s of
	// peak work in 200 s is rate 0.5.
	s := BatchSpec{Name: "x", MemBound: 0.3, Util: 0.9, PeakSeconds: 100}
	j, _ := NewBatchJob(s, 0, 200)
	f := j.RequiredFreq(0, 2.0)
	if got := s.Rate(f, 2.0); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Rate(RequiredFreq) = %v, want 0.5", got)
	}
}

func TestPhasedCompletionAcrossSteps(t *testing.T) {
	// Multiple completions within one large step must respect phases.
	s := twoPhaseSpec()
	s.PeakSeconds = 10
	j, _ := NewBatchJob(s, 0, 1e9)
	// One execution at peak: 5/1 + 5/(1/(0.6+0.4)) = 5 + 5 = 10 s.
	j.Advance(2.0, 2.0, 25, 0)
	if j.completed != 2 {
		t.Fatalf("completions = %d, want 2 in 25 s", j.completed)
	}
	if math.Abs(j.Progress()-0.5) > 1e-6 {
		t.Fatalf("progress = %v, want 0.5", j.Progress())
	}
	if math.Abs(j.CompletionTime()-10) > 1e-6 {
		t.Fatalf("first completion at %v, want 10", j.CompletionTime())
	}
}
