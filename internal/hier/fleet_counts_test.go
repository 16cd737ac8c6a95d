package hier

import (
	"math/rand"
	"testing"

	"sprintcon/internal/sim"
	"sprintcon/internal/workload"
)

// The event engine's span structure on a fixed fleet: two day-long,
// power-capped sweeps of four racks each under stepped-diurnal demand (the
// plateau order drawn per sweep), the shape of a capacity study. The spans
// a sweep closes, the ticks it skips (the rest it steps) and the barrier
// events it plans are properties of the quiescence proof, not of how fast a
// span is closed; the pinned totals hold the proof fixed across engine
// changes.
func TestSweepFleetSpanCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("eight day-long racks")
	}
	const dayS = 86400
	var spans, skipped, events int
	for sweep := int64(0); sweep < 2; sweep++ {
		c := DefaultConfig()
		c.Rows = []RowConfig{{Racks: 4}}
		scn := &c.Scenario
		scn.DurationS = dayS
		scn.BurstDurationS = dayS
		scn.AmbientSwingC = 0
		scn.Rack.MonitorNoiseStd = 0
		scn.Rack.UtilJitterStd = 0
		scn.BatchSpecs = workload.SteadyStateSpecs()
		base := []float64{0.5, 0.55, 0.62, 0.75}
		levels := make([]float64, len(base))
		for i, j := range rand.New(rand.NewSource(sweep)).Perm(len(base)) {
			levels[i] = base[j]
		}
		tr, err := workload.SteppedDiurnal(levels, 3600, dayS, scn.DtS)
		if err != nil {
			t.Fatal(err)
		}
		scn.Trace = tr
		scn.Interactive.Seed += 100 * sweep
		scn.Rack.Seed += 100 * sweep
		c.SprintCon.NoSprint = true
		c.RackOptions = func(int, int) sim.RunOptions {
			return sim.RunOptions{Engine: "event", SeriesStride: 3600}
		}
		res, err := RunSweep(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows[0] {
			e := r.Engine
			spans += e.Spans
			skipped += e.TicksSkipped
			events += e.Events
		}
	}
	t.Logf("spans %d, ticks skipped %d, events %d", spans, skipped, events)
	if spans != 192 || skipped != 671200 || events != 356 {
		t.Fatalf("spans %d, ticks skipped %d, events %d; want 192, 671200, 356", spans, skipped, events)
	}
}
