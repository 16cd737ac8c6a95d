package core

import (
	"runtime"
	"testing"

	"sprintcon/internal/sim"
	"sprintcon/internal/workload"
)

// The steady-state tick path must not allocate when telemetry is off
// (DESIGN.md §10): the MPC owns its solve buffers, the QP runs in a
// workspace, and the per-period rack slices are reused. The engine's
// recordTick appends are outside the policy and preallocated separately.
func TestTickPathZeroAlloc(t *testing.T) {
	scn := sim.DefaultScenario()
	env, err := sim.BuildEnv(scn)
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	if err := s.Start(env, scn); err != nil {
		t.Fatal(err)
	}

	snap := sim.Snapshot{
		Dt:             scn.DtS,
		MeasuredTotalW: env.Rack.MeasuredPower(),
		CBPowerW:       env.Rack.TruePower(),
		UPSSoC:         env.UPS.SoC(),
	}
	now := 0.0
	tick := func() {
		snap.Now = now
		snap.MeasuredTotalW = env.Rack.MeasuredPower()
		snap.CBPowerW = env.Rack.TruePower()
		s.Tick(env, snap)
		env.Rack.AdvanceBatch(scn.DtS, now)
		now += scn.DtS
	}
	// Warm up: let the controllers fill caches, the allocator run a few
	// P_batch updates (30 s cadence), and all append-backed buffers reach
	// their steady capacity.
	for i := 0; i < 120; i++ {
		tick()
	}

	allocs := testing.AllocsPerRun(200, tick)
	if allocs != 0 {
		t.Fatalf("steady-state tick allocates %.2f times per run, want 0", allocs)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// benchDiurnalScenario is the event engine's pinned performance scenario:
// the deterministic plant under a stepped-diurnal trace with 900 s plateaus
// over durationS seconds, run power-capped (see noSprintConfig).
func benchDiurnalScenario(t *testing.T, durationS float64) sim.Scenario {
	t.Helper()
	scn := sim.DefaultScenario()
	scn.DurationS = durationS
	scn.BurstDurationS = durationS
	scn.AmbientSwingC = 0
	scn.Rack.MonitorNoiseStd = 0
	scn.Rack.UtilJitterStd = 0
	scn.BatchSpecs = workload.SteadyStateSpecs()
	tr, err := workload.SteppedDiurnal([]float64{0.5, 0.62, 0.75, 0.55}, 900, durationS, scn.DtS)
	if err != nil {
		t.Fatal(err)
	}
	scn.Trace = tr
	return scn
}

func noSprintConfig() Config {
	cfg := DefaultConfig()
	cfg.NoSprint = true
	return cfg
}

// The event core's zero-alloc contract, measured as a marginal cost: two
// event runs whose durations differ 2× but whose series stride scales with
// the duration record the same number of rows, so every per-run and
// series-append allocation cancels in the difference. What remains is the
// heap cost of planning and closing the extra spans. Background runtime
// work can add a stray allocation to a run but never remove one, so each
// point is the fewest allocations of three runs at GOMAXPROCS=1.
func TestEventEngineAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("two-hour event runs")
	}
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	countAllocs := func(durationS float64) (uint64, *sim.Result) {
		var fewest uint64
		var res *sim.Result
		for trial := 0; trial < 3; trial++ {
			scn := benchDiurnalScenario(t, durationS)
			p := New(noSprintConfig())
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r, err := sim.RunWith(scn, p, sim.RunOptions{Engine: "event", SeriesStride: int(durationS) / 12, DropEvents: true})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if n := m1.Mallocs - m0.Mallocs; trial == 0 || n < fewest {
				fewest = n
			}
			res = r
		}
		return fewest, res
	}
	countAllocs(3600) // warm-up: page in code paths, steady the heap
	a1, r1 := countAllocs(3600)
	a2, r2 := countAllocs(7200)
	dEvents := r2.Engine.Events - r1.Engine.Events
	if dEvents <= 0 {
		t.Fatalf("the longer run planned %d events, the shorter %d", r2.Engine.Events, r1.Engine.Events)
	}
	perEvent := (float64(a2) - float64(a1)) / float64(dEvents)
	t.Logf("allocs %d vs %d over %d extra events: %.4f per event", a1, a2, dEvents, perEvent)
	if perEvent > 0.01 {
		t.Fatalf("event engine allocates %.4f times per event, want ≤ 0.01", perEvent)
	}
}

// The spans the event engine closes on the pinned scenario are a property
// of the quiescence proof, not of how fast a span is closed: these counts
// pin the proof, so a faster fastForward provably closes the same spans.
func TestEventEngineSpanCountsPinned(t *testing.T) {
	for _, c := range []struct {
		durationS                   float64
		spans, ticksSkipped, events int
	}{
		{3600, 3, 2341, 5},
		{7200, 7, 5701, 11},
	} {
		res, err := sim.RunWith(benchDiurnalScenario(t, c.durationS), New(noSprintConfig()), sim.RunOptions{Engine: "event"})
		if err != nil {
			t.Fatal(err)
		}
		e := res.Engine
		t.Logf("%.0f s: spans %d, ticks skipped %d, events %d", c.durationS, e.Spans, e.TicksSkipped, e.Events)
		if e.Spans != c.spans || e.TicksSkipped != c.ticksSkipped || e.Events != c.events {
			t.Fatalf("%.0f s: spans %d, ticks skipped %d, events %d; want %d, %d, %d",
				c.durationS, e.Spans, e.TicksSkipped, e.Events, c.spans, c.ticksSkipped, c.events)
		}
	}
}
