package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// jobStateEqual compares the whole job snapshot bit for bit.
func jobStateEqual(a, b *BatchJob) bool {
	x, y := a.ExportState(), b.ExportState()
	bits := math.Float64bits
	return bits(x.StartTime) == bits(y.StartTime) && bits(x.Deadline) == bits(y.Deadline) &&
		bits(x.TotalWork) == bits(y.TotalWork) && bits(x.Remaining) == bits(y.Remaining) &&
		bits(x.DoneAt) == bits(y.DoneAt) && x.Completed == y.Completed &&
		bits(x.ExecSecs) == bits(y.ExecSecs)
}

// randomSpec draws a valid spec with one to four phases.
func randomSpec(rng *rand.Rand) BatchSpec {
	spec := BatchSpec{
		Name:        "random",
		MemBound:    rng.Float64() * 0.9,
		Util:        0.05 + 0.95*rng.Float64(),
		PeakSeconds: 20 + 600*rng.Float64(),
	}
	if np := rng.Intn(4); np > 0 {
		w := make([]float64, np+1)
		var sum float64
		for i := range w {
			w[i] = 0.05 + rng.Float64()
			sum += w[i]
		}
		var acc float64
		for i := range w {
			frac := w[i] / sum
			if i == len(w)-1 {
				frac = 1 - acc
			}
			acc += frac
			spec.Phases = append(spec.Phases, Phase{Frac: frac, MemBound: rng.Float64() * 0.9, Util: 0.05 + 0.95*rng.Float64()})
		}
	}
	return spec
}

// AdvanceTicks must be bit-identical to the equivalent sequence of Advance
// calls for every spec shape (single-phase, multi-phase), frequency, tick
// length and chunking — including spans that cross phase boundaries,
// completions and re-execution wraps — on the whole job snapshot,
// execution time included.
func TestAdvanceTicksMatchesAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(name string, ja, jb *BatchJob, f, fmax, dt float64, steps int) {
		t.Helper()
		step := 0
		for step < steps {
			n := 1 + rng.Intn(600)
			ja.AdvanceTicks(f, fmax, dt, step, n)
			for k := 0; k < n; k++ {
				jb.Advance(f, fmax, dt, float64(step+k)*dt)
			}
			step += n
			if !jobStateEqual(ja, jb) {
				t.Fatalf("%s f=%g dt=%g: state diverged at step %d:\n ticks: %+v\n loop:  %+v",
					name, f, dt, step, ja.ExportState(), jb.ExportState())
			}
		}
		if ja.completed == 0 {
			t.Fatalf("%s f=%g dt=%g: job never completed; test did not exercise wraps", name, f, dt)
		}
	}
	for _, spec := range SpecCPU2006() {
		for _, f := range []float64{0.25, 0.4, 0.55, 1.0} {
			ja, err := NewBatchJob(spec, 0, 720)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := NewBatchJob(spec, 0, 720)
			if err != nil {
				t.Fatal(err)
			}
			ja.ScaleWork(0.4 * 720 / spec.PeakSeconds)
			jb.ScaleWork(0.4 * 720 / spec.PeakSeconds)
			// Push far past one completion so wraps are exercised.
			check(spec.Name, ja, jb, f, 1.0, 1.0, 4000)
		}
	}
	for i := 0; i < 200; i++ {
		spec := randomSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		fmax := 1 + 2*rng.Float64()
		f := fmax * (0.1 + 0.9*rng.Float64())
		dt := []float64{1, 0.1, 0.25, 0.3, 1.7, 3}[rng.Intn(6)] * (1 + 0.1*float64(rng.Intn(3)))
		start := float64(rng.Intn(1000)) * dt
		ja, err := NewBatchJob(spec, start, start+1e4)
		if err != nil {
			t.Fatal(err)
		}
		jb, _ := NewBatchJob(spec, start, start+1e4)
		// Enough ticks for at least two executions at the job's rate.
		steps := int(3*spec.PeakSeconds/(spec.Rate(f, fmax)*dt)) + 1
		check(fmt.Sprintf("random spec %d (%d phases)", i, len(spec.Phases)), ja, jb, f, fmax, dt, steps)
	}
}

// Spans that end within a tick or two of a segment's end, from remaining
// work on an exact multiple of the tick's progress, put the gate's own
// rounding on the edge: the estimated prefix is sometimes a tick long, and
// the binary search must cut it back. The whole snapshot must still match.
func TestAdvanceTicksNearSegmentEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, spec := range SpecCPU2006() {
		for i := 0; i < 300; i++ {
			const fmax = 1.0
			f := 0.05 + 0.95*rng.Float64()
			dt := []float64{1, 0.5, 0.3, 2}[rng.Intn(4)]
			ja, err := NewBatchJob(spec, 0, 720)
			if err != nil {
				t.Fatal(err)
			}
			jb, _ := NewBatchJob(spec, 0, 720)
			st := ja.ExportState()
			step := phaseRate(spec.phases()[spec.phaseIndexAt(0, st.TotalWork)], f, fmax) * dt
			st.Remaining = math.Min(st.TotalWork, float64(1+rng.Intn(40))*step)
			if err := ja.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			if err := jb.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			n := 1 + rng.Intn(60)
			ja.AdvanceTicks(f, fmax, dt, 0, n)
			for k := 0; k < n; k++ {
				jb.Advance(f, fmax, dt, float64(k)*dt)
			}
			if !jobStateEqual(ja, jb) {
				t.Fatalf("%s f=%g dt=%g n=%d from %v: ticks %+v, loop %+v",
					spec.Name, f, dt, n, st.Remaining, ja.ExportState(), jb.ExportState())
			}
		}
	}
}

// When a tick's progress is only a few ulps of the remaining work, each
// remaining -= step rounds by a sizable fraction of a step, so the
// real-valued estimate of the in-segment prefix is off by many ticks: short
// when the rounding shrinks the step (1.3 ulps → 1), long when it grows it
// (1.7 ulps → 2), which the binary search must cut back. The replay must
// stay exact either way.
func TestAdvanceTicksCoarseGrid(t *testing.T) {
	const fmax, half = 1.0, 1 << 20 // phase 0 ends when remaining reaches half
	spec := BatchSpec{Name: "two-phase", MemBound: 0, Util: 1, PeakSeconds: 2 * half, Phases: []Phase{
		{Frac: 0.5, MemBound: 0, Util: 1},
		{Frac: 0.5, MemBound: 0, Util: 0.5},
	}}
	ulp := math.Nextafter(half, 2*half) - half // spacing of remaining above half
	for _, ulps := range []float64{1.3, 1.7} {
		for _, ticksLeft := range []int{3, 40, 100, 250} {
			dt := ulps * ulp // progress per tick at f = fmax, rate 1
			ja, err := NewBatchJob(spec, 0, 10)
			if err != nil {
				t.Fatal(err)
			}
			jb, _ := NewBatchJob(spec, 0, 10)
			st := ja.ExportState()
			st.Remaining = half + float64(ticksLeft)*dt
			if err := ja.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			if err := jb.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			const n = 400
			ja.AdvanceTicks(fmax, fmax, dt, 0, n)
			for k := 0; k < n; k++ {
				jb.Advance(fmax, fmax, dt, float64(k)*dt)
			}
			if !jobStateEqual(ja, jb) {
				t.Fatalf("%.1f ulps per tick, %d ticks left: ticks %+v, loop %+v", ulps, ticksLeft, ja.ExportState(), jb.ExportState())
			}
			if ja.CurrentUtil() != 0.5 {
				t.Fatalf("%.1f ulps per tick, %d ticks left: still in phase 0 after %d ticks", ulps, ticksLeft, n)
			}
		}
	}
}

// At f = 0 no work progresses; AdvanceTicks must still accrue wall time
// exactly like Advance.
func TestAdvanceTicksZeroFrequency(t *testing.T) {
	spec := SpecCPU2006()[0]
	ja, _ := NewBatchJob(spec, 0, 720)
	jb, _ := NewBatchJob(spec, 0, 720)
	ja.AdvanceTicks(0, 1, 1, 0, 50)
	for k := 0; k < 50; k++ {
		jb.Advance(0, 1, 1, float64(k))
	}
	if !jobStateEqual(ja, jb) {
		t.Fatal("zero-frequency tick replay diverged from Advance")
	}
}

// StableTicks must be sound: CurrentUtil may not change within the reported
// horizon under constant-frequency execution.
func TestStableTicksSound(t *testing.T) {
	for _, spec := range SpecCPU2006() {
		j, err := NewBatchJob(spec, 0, 720)
		if err != nil {
			t.Fatal(err)
		}
		const f, fmax, dt = 0.6, 1.0, 1.0
		for step := 0; step < 1200; step++ {
			n := j.StableTicks(f, fmax, dt)
			if n > 1200-step {
				n = 1200 - step
			}
			u0 := j.CurrentUtil()
			for k := 0; k < n; k++ {
				j.Advance(f, fmax, dt, float64(step+k)*dt)
				if u := j.CurrentUtil(); u != u0 {
					t.Fatalf("%s: util changed at tick %d of a %d-tick stable horizon (%.4f → %.4f)",
						spec.Name, k, n, u0, u)
				}
			}
			step += n
			j.Advance(f, fmax, dt, float64(step)*dt)
		}
	}
}

// Single-phase specs must report an unbounded stability horizon: their
// utilization never changes, even across re-execution wraps.
func TestStableTicksSinglePhaseUnbounded(t *testing.T) {
	for _, spec := range SteadyStateSpecs() {
		j, _ := NewBatchJob(spec, 0, 720)
		if n := j.StableTicks(0.5, 1, 1); n != math.MaxInt32 {
			t.Fatalf("%s: single-phase spec reported bounded horizon %d", spec.Name, n)
		}
	}
}

func TestSteadyStateSpecsAreSinglePhase(t *testing.T) {
	specs := SteadyStateSpecs()
	if len(specs) == 0 {
		t.Fatal("no steady-state specs")
	}
	for _, s := range specs {
		if len(s.Phases) > 1 {
			t.Fatalf("%s has %d phases", s.Name, len(s.Phases))
		}
	}
}

func TestSteppedDiurnal(t *testing.T) {
	tr, err := SteppedDiurnal([]float64{0.2, 0.8}, 10, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ t, want float64 }{
		{0, 0.2}, {9, 0.2}, {10, 0.8}, {19, 0.8}, {20, 0.2}, {39, 0.8},
	} {
		if got := tr.At(c.t); got != c.want {
			t.Fatalf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if _, err := SteppedDiurnal(nil, 10, 40, 1); err == nil {
		t.Fatal("empty levels accepted")
	}
	if _, err := SteppedDiurnal([]float64{1.5}, 10, 40, 1); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if _, err := SteppedDiurnal([]float64{0.5}, 0, 40, 1); err == nil {
		t.Fatal("zero plateau accepted")
	}
}
