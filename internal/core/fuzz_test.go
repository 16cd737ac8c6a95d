package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/sim"
	"sprintcon/internal/workload"
)

// FuzzEngineEquivalence generates short deterministic runs — duration up to
// two hours, a stepped-diurnal trace of drawn levels and plateau length,
// seeds, SprintCon sprinting or power-capping, a series stride, an optional
// checkpoint cadence, and optionally one batch core running a multi-phase
// job (whose phase edges move a core's utilization) — and requires the
// event engine to reproduce the tick engine bit for bit, every checkpoint
// capture included. When the run checkpoints, a resume from a snapshot
// captured mid-run must also continue exactly as the uninterrupted run did.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint16(3600), uint16(900), int64(1), int64(0), true, uint8(1), uint16(0), false)
	f.Add(uint16(7200), uint16(1800), int64(2), int64(3), true, uint8(60), uint16(600), false)
	f.Add(uint16(1800), uint16(300), int64(3), int64(7), false, uint8(4), uint16(450), false)
	f.Add(uint16(5400), uint16(2400), int64(4), int64(11), true, uint8(13), uint16(1234), false)
	f.Add(uint16(6000), uint16(3000), int64(5), int64(2), true, uint8(1), uint16(300), true)
	f.Fuzz(func(t *testing.T, dur, plateau uint16, levelSeed, seed int64, noSprint bool, stride uint8, ckEvery uint16, phased bool) {
		durationS := float64(600 + int(dur)%6601)
		scn := sim.DefaultScenario()
		scn.DurationS = durationS
		scn.BurstDurationS = durationS
		scn.AmbientSwingC = 0
		scn.Rack.MonitorNoiseStd = 0
		scn.Rack.UtilJitterStd = 0
		scn.BatchSpecs = workload.SteadyStateSpecs()
		if phased {
			// Cores take specs round-robin: a list as long as the batch
			// cores gives core 0 the multi-phase job and the rest steady
			// ones.
			steady := scn.BatchSpecs
			scn.BatchSpecs = make([]workload.BatchSpec, scn.Rack.NumServers*scn.Rack.BatchCoresPerServer)
			for i := range scn.BatchSpecs {
				scn.BatchSpecs[i] = steady[i%len(steady)]
			}
			scn.BatchSpecs[0] = workload.SpecCPU2006()[2] // 403.gcc, three phases
		}
		scn.Interactive.Seed += seed
		scn.Rack.Seed += seed
		rng := rand.New(rand.NewSource(levelSeed))
		levels := make([]float64, 1+rng.Intn(4))
		for i := range levels {
			if rng.Intn(4) == 0 {
				levels[i] = math.Round(100*(0.2+0.8*rng.Float64())) / 100 // may never settle
			} else {
				levels[i] = []float64{0.5, 0.55, 0.62, 0.75}[rng.Intn(4)]
			}
		}
		tr, err := workload.SteppedDiurnal(levels, float64(60+int(plateau)%3541), durationS, scn.DtS)
		if err != nil {
			t.Fatal(err)
		}
		scn.Trace = tr
		cfg := DefaultConfig()
		cfg.NoSprint = noSprint

		opts := sim.RunOptions{SeriesStride: 1 + int(stride)%120}
		var tickStore, eventStore *recordStore
		if ckEvery > 0 {
			tickStore, eventStore = &recordStore{}, &recordStore{}
		}
		run := func(engine string, store *recordStore) *sim.Result {
			o := opts
			o.Engine = engine
			if store != nil {
				o.Checkpoint = &sim.CheckpointOptions{Store: store, EveryS: float64(60 + int(ckEvery)%1800)}
			}
			res, err := sim.RunWith(scn, New(cfg), o)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		tick, event := run("tick", tickStore), run("event", eventStore)
		assertBitIdentical(t, tick, event)
		t.Logf("%.0f s, levels %v: %d spans, %d ticks skipped", durationS, levels, event.Engine.Spans, event.Engine.TicksSkipped)
		if eventStore == nil || len(eventStore.saves) == 0 {
			return
		}
		// Captures hold the whole controller and plant state, so equal
		// encodings pin what the results cannot show, such as the
		// allocator's observation window.
		if len(eventStore.saves) != len(tickStore.saves) {
			t.Fatalf("captures: event %d, tick %d", len(eventStore.saves), len(tickStore.saves))
		}
		for i := range tickStore.saves {
			a, err := checkpoint.Encode(&tickStore.saves[i])
			if err != nil {
				t.Fatal(err)
			}
			b, err := checkpoint.Encode(&eventStore.saves[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("capture %d at t=%g differs between engines", i, tickStore.saves[i].SimTimeS)
			}
		}
		// Resume mid-run on both engines: the two continuations agree in
		// full, and their series continue the uninterrupted run's.
		sp := eventStore.saves[len(eventStore.saves)/2]
		resume := func(engine string) *sim.Result {
			o := opts
			o.Engine = engine
			o.Resume = &sp
			res, err := sim.RunWith(scn, New(cfg), o)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		tickTail, eventTail := resume("tick"), resume("event")
		assertBitIdentical(t, tickTail, eventTail)
		assertResumedTail(t, event, eventTail, int(sp.Step), opts.SeriesStride)
	})
}

// assertResumedTail requires the series of a run resumed at step from to
// continue the uninterrupted run's row for row. (A resumed run's summaries
// cover only its own ticks.)
func assertResumedTail(t *testing.T, full, tail *sim.Result, from, stride int) {
	t.Helper()
	off := (from + stride - 1) / stride // rows recorded before the resume step
	f, r := &full.Series, &tail.Series
	for _, c := range []struct {
		name       string
		full, tail []float64
	}{
		{"Time", f.Time, r.Time}, {"TotalW", f.TotalW, r.TotalW}, {"CBW", f.CBW, r.CBW},
		{"UPSW", f.UPSW, r.UPSW}, {"PCbW", f.PCbW, r.PCbW}, {"PBatchW", f.PBatchW, r.PBatchW},
		{"FreqInter", f.FreqInter, r.FreqInter}, {"FreqBatch", f.FreqBatch, r.FreqBatch},
		{"SoC", f.SoC, r.SoC}, {"Demand", f.Demand, r.Demand},
	} {
		if off > len(c.full) {
			t.Fatalf("%s: resume row offset %d beyond %d rows", c.name, off, len(c.full))
		}
		bitEqualF64s(t, "resumed "+c.name, c.full[off:], c.tail)
	}
}
