package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sprintcon/internal/alloc"
	"sprintcon/internal/core"
	"sprintcon/internal/hier"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
	"sprintcon/internal/workload"
)

// fleetPlateauS is the stepped-diurnal plateau length: 24 plateaus a day.
const fleetPlateauS = 3600

// fleetLevels are the stepped-diurnal plateau levels: all in the settling
// regime, where the capped closed loop reaches an exact fixed point after
// every step and the event engine fast-forwards. Lighter levels, and some
// steps between arbitrary levels, make the quantized batch actuator hunt,
// which would make an operation's cost depend on the draw.
var fleetLevels = []float64{0.5, 0.55, 0.62, 0.75}

// fleetScenario is operation op's rack scenario over durS seconds: the
// deterministic plant (no monitor noise, utilization jitter or ambient
// swing) under a stepped-diurnal demand trace whose plateau order the seed
// draws.
func fleetScenario(cfg config, op int64, durS float64) (sim.Scenario, error) {
	scn := sim.DefaultScenario()
	scn.DurationS = durS
	scn.BurstDurationS = durS
	scn.AmbientSwingC = 0
	scn.Rack.MonitorNoiseStd = 0
	scn.Rack.UtilJitterStd = 0
	scn.BatchSpecs = workload.SteadyStateSpecs()
	off := cfg.seed*seedStride + op
	levels := make([]float64, len(fleetLevels))
	for i, j := range rand.New(rand.NewSource(off)).Perm(len(levels)) {
		levels[i] = fleetLevels[j]
	}
	tr, err := workload.SteppedDiurnal(levels, fleetPlateauS, durS, scn.DtS)
	if err != nil {
		return scn, err
	}
	scn.Trace = tr
	scn.Interactive.Seed += off
	scn.Rack.Seed += off
	scn.Faults.Seed += off
	return scn, nil
}

// noSprint is the fleet policy: classic power capping at the breaker
// rating, the regime where quiescent spans open.
func noSprint() core.Config {
	cfg := core.DefaultConfig()
	cfg.NoSprint = true
	return cfg
}

// fleetOpts are the per-rack run options of the fleet sweep: the event
// engine, one series sample per simulated hour.
func fleetOpts(int, int) sim.RunOptions {
	return sim.RunOptions{Engine: "event", SeriesStride: 3600}
}

// fleetConfig is operation op: one row of GOMAXPROCS racks on hier.RunSweep.
func fleetConfig(cfg config, op int64, racks int) (hier.Config, error) {
	scn, err := fleetScenario(cfg, op, cfg.size.fleetDurS)
	return hier.Config{
		Rows:        []hier.RowConfig{{Racks: racks}},
		Scenario:    scn,
		SprintCon:   noSprint(),
		RackOptions: fleetOpts,
	}, err
}

// sweepRack builds rack j of a one-row sweep exactly as hier.RunSweep does
// (seed offsets by global rack index, slot-packed phase offset), so the
// traced run can drive that rack's Runner itself.
func sweepRack(c hier.Config, a hier.Allocation, j int) (sim.Scenario, *core.SprintCon) {
	ra := a.Rows[0]
	scn := c.Scenario
	scn.Faults, _ = scn.Faults.Split()
	g := int64(ra.StartRack + j)
	scn.Interactive.Seed += g
	scn.Rack.Seed += g
	scn.Faults.Seed += g
	pcfg := c.SprintCon
	acfg := alloc.DefaultConfig(scn.Breaker.RatedPower, scn.Breaker.TripBudget())
	cycle := acfg.OverloadS + acfg.RecoveryS
	slot := j / ra.SlotCapacity
	acfg.PhaseOffsetS = math.Mod(cycle-float64(slot)*acfg.OverloadS, cycle)
	pcfg.AllocOverride = &acfg
	return scn, core.New(pcfg)
}

// fleetRun is the untraced part of fleet_diurnal.
type fleetRun struct {
	racks   int           // racks per operation
	results []rackSummary // measured racks, op-major
	ops     []span
	elapsed float64
	rssMB   float64 // peak RSS at the end of the measured window
	out     outcomes
}

func fleetLoop(cfg config, rep *report, d float64) (*fleetRun, error) {
	fr := &fleetRun{racks: runtime.GOMAXPROCS(0)}
	sweep := func(op int64) ([]*sim.Result, error) {
		c, err := fleetConfig(cfg, op, fr.racks)
		if err != nil {
			return nil, err
		}
		res, err := hier.RunSweep(c)
		if err != nil {
			return nil, err
		}
		return res.Rows[0], nil
	}
	if _, _, err := closedLoop(cfg.size.warmS, func(i int) error {
		_, err := sweep(warmBase + int64(i))
		return err
	}); err != nil {
		return nil, err
	}
	op := func(i int) error {
		res, err := sweep(int64(i))
		for _, r := range res {
			fr.results = append(fr.results, summarize(r))
		}
		return err
	}
	var err error
	if fr.ops, fr.elapsed, err = closedLoop(d, op); err != nil {
		return nil, err
	}
	fr.rssMB = peakRSSMB()
	for i := len(fr.ops); i < outcomeOps; i++ {
		if err := op(i); err != nil {
			return nil, err
		}
	}
	rep.Attempted = len(fr.results)
	for k, s := range fr.results {
		if s.trips != 0 {
			rep.Failed++
			rep.fail("rack %d: %d breaker trips", k, s.trips)
		}
		if k < outcomeOps*fr.racks {
			fr.out.add(s)
		}
	}

	// tick ≡ event: a sampled operation's first rack on a shortened window.
	k := int64(uint64(cfg.seed) % uint64(len(fr.ops)))
	scn, err := fleetScenario(cfg, k, cfg.size.fleetCheckS)
	if err != nil {
		return nil, err
	}
	var runs [2]*sim.Result
	for i, engine := range []string{"tick", "event"} {
		if runs[i], err = sim.RunWith(scn, core.New(noSprint()), sim.RunOptions{Engine: engine}); err != nil {
			return nil, err
		}
	}
	if err := equalResults(runs[0], runs[1]); err != nil {
		rep.Failed++
		rep.fail("operation %d: tick and event engines differ: %v", k, err)
	}
	info("tick≡event check: %d spans, %d of %.0f ticks skipped", runs[1].Engine.Spans, runs[1].Engine.TicksSkipped, cfg.size.fleetCheckS)
	return fr, nil
}

func runFleet(cfg config) (*report, error) {
	rep := newReport()
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	fr, err := fleetLoop(cfg, rep, d)
	if err != nil {
		return nil, err
	}
	rate := sliceRate(fr.ops, float64(fr.racks)*cfg.size.fleetDurS, fr.elapsed)
	if !cfg.trace {
		rep.set("rack_s_per_wall_s", rate)
		// Set-up runs after the measured window so its garbage cannot
		// set the window's peak RSS.
		setup, err := fleetSetupS(cfg)
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", setup)
		setTurnaround(rep, fr.ops)
		rep.set("peak_rss_mb", fr.rssMB)
		rep.set("avg_freq_inter", fr.out.freqInter())
		fr.out.log(rep)
		return rep, nil
	}
	return rep, traceFleet(cfg, rep, fr, rate)
}

// traceFleet re-runs the measured operations' racks with the timing
// wrapper on the event engine, in the same batches, checks they reproduce
// the untraced results, and prints the per-layer metrics. The event engine
// runs without a telemetry registry (one would disable fast-forward), so
// the plant and control costs per stepped tick come from a tick-engine
// twin of operation 0's first rack on the shortened check window.
func traceFleet(cfg config, rep *report, fr *fleetRun, untracedRate float64) error {
	n := len(fr.results)
	results := make([]*sim.Result, n)
	traces := make([]rackTrace, n)
	t0 := time.Now()
	waitNs, err := batches(n, fr.racks, func(k int) (int64, error) {
		c, err := fleetConfig(cfg, int64(k/fr.racks), fr.racks)
		if err != nil {
			return 0, err
		}
		a, err := hier.Allocate(c)
		if err != nil {
			return 0, err
		}
		scn, p := sweepRack(c, a, k%fr.racks)
		res, tr, err := traceRack(scn, p, fleetOpts(0, k%fr.racks))
		results[k], traces[k] = res, tr
		return tr.wallNs(), err
	})
	if err != nil {
		return err
	}
	capacityNs := float64(time.Since(t0).Nanoseconds()) * float64(fr.racks)
	var l layers
	for k, res := range results {
		if s := summarize(res); s != fr.results[k] {
			rep.Failed++
			rep.fail("rack %d: traced run differs from the untraced run: %+v vs %+v", k, s, fr.results[k])
		}
		l.add(res, traces[k])
	}
	tracedRate := l.simS / (capacityNs / float64(fr.racks) / 1e9)

	// Tick-engine twin: per-stepped-tick plant and MPC costs.
	c, err := fleetConfig(cfg, 0, fr.racks)
	if err != nil {
		return err
	}
	a, err := hier.Allocate(c)
	if err != nil {
		return err
	}
	twinScn, twinPol := sweepRack(c, a, 0)
	twinScn, err = shorten(cfg, twinScn, 0)
	if err != nil {
		return err
	}
	twinRes, twinTr, err := traceRack(twinScn, twinPol, sim.RunOptions{Metrics: telemetry.NewRegistry()})
	if err != nil {
		return err
	}
	var twin layers
	twin.add(twinRes, twinTr)
	plantPerTick := float64(twin.runNs-twin.tickNs) / float64(twin.stepped)
	plantNs := plantPerTick * float64(l.stepped)
	mpcNs := float64(twin.mpc.count) * float64(l.ticks) / math.Max(1, float64(twin.ticks)) * twin.mpc.mean() * 1e9
	engineNs := float64(l.runNs-l.tickNs) - plantNs

	scn, p := sweepRack(c, a, 0)
	apt, err := allocsPerTick(scn, p, fleetOpts(0, 0))
	if err != nil {
		return err
	}
	speedup, err := poolSpeedup(func() error {
		_, err := hier.RunSweep(c)
		return err
	})
	if err != nil {
		return err
	}

	rep.set("sim.setup_ms_per_rack", float64(l.setupNs)/1e6/float64(l.racks))
	rep.set("sim.plant_us_per_tick", plantPerTick/1e3)
	rep.set("sim.ticks_stepped", float64(l.stepped)/float64(l.racks))
	rep.set("sim.allocs_per_tick", apt)
	rep.set("sim.pool_speedup", speedup)
	rep.set("core.tick_us", float64(l.tickNs)/1e3/float64(l.ticks))
	rep.set("core.self_us_per_tick", (float64(l.tickNs)-mpcNs)/1e3/float64(l.ticks))
	setControl(rep, &twin, l.ticks, l.racks, l.wallNs())
	l.setEngine(rep)
	rep.set("engine.overhead_share", engineNs/float64(l.wallNs()))
	zero(rep, serviceOnly...)
	fr.out.set(rep)
	rep.set("trace.overhead", tracedRate/untracedRate)
	l.setSelfTimes(rep, capacityNs, waitNs, []selfTime{
		{"sim.setup", float64(l.setupNs)},
		{"sim.plant", plantNs},
		{"core.self", float64(l.tickNs) - mpcNs},
		{"control.mpc", mpcNs},
		{"engine", engineNs},
		{"sim.finish", float64(l.finishNs)},
	})
	return nil
}

// shorten regenerates operation op's scenario over the check window,
// keeping the rack's seeds.
func shorten(cfg config, scn sim.Scenario, op int64) (sim.Scenario, error) {
	short, err := fleetScenario(cfg, op, cfg.size.fleetCheckS)
	if err != nil {
		return scn, fmt.Errorf("shorten: %w", err)
	}
	scn.DurationS, scn.BurstDurationS, scn.Trace = short.DurationS, short.BurstDurationS, short.Trace
	return scn, nil
}

// fleetSetupS times building fleetSetup operations (scenario and trace,
// hier.Allocate, policies and sim.NewRunner) and returns the median over
// setupReps repetitions.
func fleetSetupS(cfg config) (float64, error) {
	racks := runtime.GOMAXPROCS(0)
	return medianOf(cfg.size.setupReps, func(r int) (float64, error) {
		runtime.GC() // start each repetition without the previous one's garbage
		t0 := time.Now()
		for i := 0; i < cfg.size.fleetSetup; i++ {
			c, err := fleetConfig(cfg, setupBase+int64(r*cfg.size.fleetSetup+i), racks)
			if err != nil {
				return 0, err
			}
			a, err := hier.Allocate(c)
			if err != nil {
				return 0, err
			}
			for j := 0; j < racks; j++ {
				scn, p := sweepRack(c, a, j)
				if _, err := sim.NewRunner(scn, p, fleetOpts(0, j)); err != nil {
					return 0, err
				}
			}
		}
		return since(t0), nil
	})
}
