package main

import (
	"fmt"
	"runtime"
	"time"

	"sprintcon/internal/core"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// sprintScenario is rack k of the seed: the paper's default scenario with
// the rack's own traffic, noise and fault seeds.
func sprintScenario(cfg config, k int64) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.DurationS = cfg.size.sprintDurS
	off := cfg.seed*seedStride + k
	scn.Interactive.Seed += off
	scn.Rack.Seed += off
	scn.Faults.Seed += off
	return scn
}

// sprintRun is the untraced part of rack_sprint: the closed loop and its
// output checks.
type sprintRun struct {
	batch   int           // racks per operation
	racks   []rackSummary // measured racks, by index
	ops     []span
	elapsed float64
	rssMB   float64 // peak RSS at the end of the measured window
	out     outcomes
}

// sprintSweep runs racks k0..k0+n-1 on the sim worker pool.
func sprintSweep(cfg config, k0 int64, n int) ([]*sim.Result, error) {
	jobs := make([]sim.Job, n)
	for i := range jobs {
		k := k0 + int64(i)
		jobs[i] = sim.Job{Key: fmt.Sprintf("rack%d", k), Scenario: sprintScenario(cfg, k), Policy: core.New(core.DefaultConfig())}
	}
	return sim.RunManyOrdered(jobs)
}

// sprintLoop runs the closed loop for d seconds: one client, each
// operation a sim.RunManyOrdered sweep of GOMAXPROCS racks. It keeps the
// first outcomeOps operations' full results for the output checks.
func sprintLoop(cfg config, rep *report, d float64) (*sprintRun, error) {
	sr := &sprintRun{batch: runtime.GOMAXPROCS(0)}
	if _, _, err := closedLoop(cfg.size.warmS, func(i int) error {
		_, err := sprintSweep(cfg, warmBase+int64(i*sr.batch), sr.batch)
		return err
	}); err != nil {
		return nil, err
	}
	var kept []*sim.Result
	op := func(i int) error {
		res, err := sprintSweep(cfg, int64(i*sr.batch), sr.batch)
		if err != nil {
			return err
		}
		for _, r := range res {
			sr.racks = append(sr.racks, summarize(r))
		}
		if i < outcomeOps {
			kept = append(kept, res...)
		}
		return nil
	}
	var err error
	if sr.ops, sr.elapsed, err = closedLoop(d, op); err != nil {
		return nil, err
	}
	sr.rssMB = peakRSSMB()
	// The outcomes cover a fixed rack set; finish it on a slow machine.
	for i := len(sr.ops); i < outcomeOps; i++ {
		if err := op(i); err != nil {
			return nil, err
		}
	}
	rep.Attempted = len(sr.racks)
	for k, s := range sr.racks {
		if s.trips != 0 {
			rep.Failed++
			rep.fail("rack %d: %d breaker trips", k, s.trips)
		}
		if k < outcomeOps*sr.batch {
			sr.out.add(s)
		}
	}

	// parallel ≡ serial: a sampled rack re-run alone matches its pooled run.
	k := int(uint64(cfg.seed) % uint64(len(kept)))
	serial, err := sim.RunWith(sprintScenario(cfg, int64(k)), core.New(core.DefaultConfig()), sim.RunOptions{})
	if err != nil {
		return nil, err
	}
	if err := equalResults(kept[k], serial); err != nil {
		rep.Failed++
		rep.fail("rack %d: pooled run differs from the serial run: %v", k, err)
	}
	return sr, nil
}

func runRackSprint(cfg config) (*report, error) {
	rep := newReport()
	d := cfg.seconds
	if cfg.trace {
		d /= 2 // the other half runs traced
	}
	sr, err := sprintLoop(cfg, rep, d)
	if err != nil {
		return nil, err
	}
	rate := sliceRate(sr.ops, float64(sr.batch)*cfg.size.sprintDurS, sr.elapsed)
	if !cfg.trace {
		rep.set("rack_s_per_wall_s", rate)
		// Set-up runs after the measured window so its garbage cannot
		// set the window's peak RSS.
		setup, err := sprintSetupS(cfg)
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", setup)
		setTurnaround(rep, sr.ops)
		rep.set("peak_rss_mb", sr.rssMB)
		rep.set("avg_freq_inter", sr.out.freqInter())
		sr.out.log(rep)
		return rep, nil
	}
	return rep, traceRackSprint(cfg, rep, sr, rate)
}

// traceRackSprint re-runs the measured racks with the timing wrapper and a
// telemetry registry, in the untraced run's batches, checks they reproduce
// the untraced results, and prints the per-layer metrics.
func traceRackSprint(cfg config, rep *report, sr *sprintRun, untracedRate float64) error {
	n := len(sr.racks)
	results := make([]*sim.Result, n)
	traces := make([]rackTrace, n)
	t0 := time.Now()
	waitNs, err := batches(n, sr.batch, func(k int) (int64, error) {
		res, tr, err := traceRack(sprintScenario(cfg, int64(k)), core.New(core.DefaultConfig()),
			sim.RunOptions{Metrics: telemetry.NewRegistry()})
		results[k], traces[k] = res, tr
		return tr.wallNs(), err
	})
	if err != nil {
		return err
	}
	capacityNs := float64(time.Since(t0).Nanoseconds()) * float64(sr.batch)
	var l layers
	for k, res := range results {
		if s := summarize(res); s != sr.racks[k] {
			rep.Failed++
			rep.fail("rack %d: traced run differs from the untraced run: %+v vs %+v", k, s, sr.racks[k])
		}
		l.add(res, traces[k])
	}
	tracedRate := l.simS / (capacityNs / float64(sr.batch) / 1e9)

	apt, err := allocsPerTick(sprintScenario(cfg, 0), core.New(core.DefaultConfig()), sim.RunOptions{})
	if err != nil {
		return err
	}
	speedup, err := poolSpeedup(func() error {
		_, err := sprintSweep(cfg, warmBase, 2*runtime.GOMAXPROCS(0))
		return err
	})
	if err != nil {
		return err
	}

	rep.set("sim.setup_ms_per_rack", float64(l.setupNs)/1e6/float64(l.racks))
	rep.set("sim.plant_us_per_tick", float64(l.runNs-l.tickNs)/1e3/float64(l.stepped))
	rep.set("sim.ticks_stepped", float64(l.stepped)/float64(l.racks))
	rep.set("sim.allocs_per_tick", apt)
	rep.set("sim.pool_speedup", speedup)
	rep.set("core.tick_us", float64(l.tickNs)/1e3/float64(l.ticks))
	rep.set("core.self_us_per_tick", (float64(l.tickNs)-l.mpc.sum*1e9)/1e3/float64(l.ticks))
	setControl(rep, &l, l.ticks, l.racks, l.wallNs())
	l.setEngine(rep)
	rep.set("engine.overhead_share", 0)
	zero(rep, serviceOnly...)
	sr.out.set(rep)
	rep.set("trace.overhead", tracedRate/untracedRate)
	l.setSelfTimes(rep, capacityNs, waitNs, []selfTime{
		{"sim.setup", float64(l.setupNs)},
		{"sim.plant", float64(l.runNs - l.tickNs)},
		{"core.self", float64(l.tickNs) - l.mpc.sum*1e9},
		{"control.mpc", l.mpc.sum * 1e9},
		{"sim.finish", float64(l.finishNs)},
	})
	return nil
}

// sprintSetupS times building sprintSetup racks (scenario, trace, policy
// and sim.NewRunner) and returns the median over setupReps repetitions.
func sprintSetupS(cfg config) (float64, error) {
	return medianOf(cfg.size.setupReps, func(r int) (float64, error) {
		runtime.GC() // start each repetition without the previous one's garbage
		t0 := time.Now()
		for i := 0; i < cfg.size.sprintSetup; i++ {
			scn := sprintScenario(cfg, setupBase+int64(r*cfg.size.sprintSetup+i))
			if _, err := sim.NewRunner(scn, core.New(core.DefaultConfig()), sim.RunOptions{}); err != nil {
				return 0, err
			}
		}
		return since(t0), nil
	})
}
