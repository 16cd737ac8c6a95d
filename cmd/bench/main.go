// Command bench runs SprintCon's pinned performance scenarios and writes a
// BENCH_<date>.json data point, so the repository's performance trajectory
// is measured, not asserted. It optionally compares the run against a
// committed baseline and exits non-zero on regression (the CI bench-check
// job).
//
// Scenarios:
//
//	qp_warm_vs_cold — MPC-shaped rank-one box QP, cold solve vs warm
//	                  re-solve of a perturbed problem: ψ evaluations
//	                  (deterministic), KKT residual, allocations per
//	                  solve (must be 0)
//	tick_loop       — steady-state SprintCon tick: allocations per tick
//	                  (must be 0 with telemetry off) and ns/tick
//	trace_overhead  — the same tick loop with the observability plane
//	                  detached vs attached: allocations per tick (must stay
//	                  0 detached) and the on/off wall-time ratio
//	mpc_sweeps      — mean QP ψ evaluations per MPC solve over the
//	                  default closed-loop run
//	event_engine    — single-rack diurnal power-capping run under the
//	                  discrete-event engine vs the tick engine: bitwise
//	                  identity, the in-process speedup, the fraction of
//	                  plant ticks closed analytically, and the marginal
//	                  heap allocations per discrete event (must be 0 in
//	                  steady state)
//	cluster_sweep   — 1000-rack day-long stepped-diurnal fleet under the
//	                  event engine (the tentpole scale scenario): wall
//	                  time of the fleet, serial tick vs serial event on a
//	                  rack subset (the ≥10× engine speedup), and a
//	                  bit-identical check between the engines at every
//	                  control period
//	cluster_link    — fault-free linked run (RunLinked) vs the static
//	                  phase-offset run: the control link's stepping
//	                  overhead, a parallel-vs-serial bit-identical check,
//	                  and the degraded-mode seconds (must stay zero with
//	                  no faults on the wire)
//	cluster_hier    — hierarchical building run (internal/hier): linked
//	                  rows parallel vs serial bit-identity, the sharded
//	                  static sweep's bit-identity and speedup, and the
//	                  per-level shadow-breaker record (must stay zero on
//	                  a clean network)
//
// Metric comparison rules against the baseline: deterministic metrics
// (allocs_per_tick, allocs_per_event, bit_identical, *_sweeps*) are held to
// tight bounds; in-process speedup ratios (speedup_*) may not drop more
// than 20%; wall-clock metrics (*_ns) are informational unless -wall is
// given, since absolute times are machine-dependent. Every scenario records
// the GOMAXPROCS it ran under, and comparisons for a scenario are refused
// (with a warning) when it differs from the baseline's — parallel-path
// ratios measured at different core counts are not comparable.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sprintcon/internal/cluster"
	"sprintcon/internal/core"
	"sprintcon/internal/hier"
	"sprintcon/internal/obs"
	"sprintcon/internal/qp"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
	"sprintcon/internal/workload"
)

const schemaVersion = "sprintcon-bench/v1"

// Scenario is one benchmark's result: a flat name → value metric map, plus
// the GOMAXPROCS it ran under (parallel-path ratios depend on it, so the
// comparator refuses cross-core-count comparisons).
type Scenario struct {
	Name       string             `json:"name"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the BENCH_<date>.json document.
type Report struct {
	Schema     string     `json:"schema"`
	Date       string     `json:"date"`
	Go         string     `json:"go"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Quick      bool       `json:"quick"`
	Scenarios  []Scenario `json:"scenarios"`
}

func main() {
	quick := flag.Bool("quick", false, "shorter scenarios for CI (compare only against a -quick baseline)")
	baselinePath := flag.String("baseline", "auto",
		"baseline JSON to compare against; \"auto\" picks bench/baseline-quick.json with -quick, bench/baseline.json otherwise (empty to skip)")
	out := flag.String("o", "", "output path (default BENCH_<date>.json)")
	wall := flag.Bool("wall", false, "also enforce wall-clock (_ns) comparisons against the baseline")
	flag.Parse()

	rep := Report{
		Schema:     schemaVersion,
		Date:       time.Now().Format("2006-01-02"),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}

	fmt.Println("bench: qp_warm_vs_cold")
	rep.Scenarios = append(rep.Scenarios, qpWarmVsCold())
	fmt.Println("bench: tick_loop")
	rep.Scenarios = append(rep.Scenarios, tickLoop(*quick))
	fmt.Println("bench: trace_overhead")
	rep.Scenarios = append(rep.Scenarios, traceOverhead(*quick))
	fmt.Println("bench: mpc_sweeps")
	rep.Scenarios = append(rep.Scenarios, mpcSweeps(*quick))
	fmt.Println("bench: event_engine")
	rep.Scenarios = append(rep.Scenarios, eventEngine(*quick))
	fmt.Println("bench: cluster_sweep")
	rep.Scenarios = append(rep.Scenarios, clusterSweep(*quick))
	fmt.Println("bench: cluster_link")
	rep.Scenarios = append(rep.Scenarios, clusterLink(*quick))
	fmt.Println("bench: cluster_hier")
	rep.Scenarios = append(rep.Scenarios, clusterHier(*quick))

	for i := range rep.Scenarios {
		rep.Scenarios[i].GOMAXPROCS = rep.GOMAXPROCS
	}

	for _, s := range rep.Scenarios {
		fmt.Printf("%s:\n", s.Name)
		for _, k := range sortedKeys(s.Metrics) {
			fmt.Printf("  %-28s %v\n", k, s.Metrics[k])
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("bench: wrote %s\n", path)

	bp := *baselinePath
	if bp == "auto" {
		if *quick {
			bp = "bench/baseline-quick.json"
		} else {
			bp = "bench/baseline.json"
		}
	}
	if bp != "" {
		if code := compare(rep, bp, *wall); code != 0 {
			os.Exit(code)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

// qpWarmVsCold re-solves a perturbed MPC-shaped QP warm vs cold through
// the structured solver: ψ evaluations (deterministic), the scaled KKT
// residual of both solutions, heap allocations per workspace solve (must be
// 0) and the mean wall time per solve.
func qpWarmVsCold() Scenario {
	const n = 64
	k, d, g := make([]float64, n), make([]float64, n), make([]float64, n)
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range k {
		k[i] = 9 + 0.1*float64(i%7)
		d[i], g[i] = 400, -(4000+2500*float64(i%5))*k[i]
		lo[i], hi[i] = -1.6, 0.4
	}
	p := qp.Problem{A: 30, K: k, D: d, G: g, Lo: lo, Hi: hi}

	base, err := qp.Solve(p, qp.Options{})
	if err != nil {
		fatal(err)
	}
	pert := p
	pert.G = slices.Clone(g)
	for i := range pert.G {
		pert.G[i] *= 1.01
	}
	ws := qp.NewWorkspace(n)
	solve := func(warm []float64) qp.Result {
		res, err := qp.Solve(pert, qp.Options{Warm: warm, Ws: ws})
		if err != nil {
			fatal(err)
		}
		return res
	}
	timed := func(warm []float64) float64 {
		const reps = 2000
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			solve(warm)
		}
		return float64(time.Since(t0).Nanoseconds()) / reps
	}
	cold := solve(nil)
	warm := solve(base.X)
	allocs := testing.AllocsPerRun(100, func() { solve(base.X) })
	if allocs != 0 {
		fatal(fmt.Errorf("qp_warm_vs_cold: workspace solve allocates %.1f times, want 0", allocs))
	}
	return Scenario{Name: "qp_warm_vs_cold", Metrics: map[string]float64{
		"cold_sweeps":      float64(cold.Evals),
		"warm_sweeps":      float64(warm.Evals),
		"sweep_reduction":  float64(cold.Evals) / math.Max(1, float64(warm.Evals)),
		"kkt_residual":     math.Max(cold.Residual, warm.Residual),
		"allocs_per_solve": allocs,
		"cold_ns":          timed(nil),
		"warm_ns":          timed(base.X),
	}}
}

// tickLoop measures the steady-state SprintCon tick with telemetry off:
// allocations per tick (the zero-alloc contract) and wall time per tick.
func tickLoop(quick bool) Scenario {
	scn := sim.DefaultScenario()
	env, err := sim.BuildEnv(scn)
	if err != nil {
		fatal(err)
	}
	s := core.New(core.DefaultConfig())
	if err := s.Start(env, scn); err != nil {
		fatal(err)
	}
	snap := sim.Snapshot{Dt: scn.DtS, UPSSoC: env.UPS.SoC()}
	now := 0.0
	tick := func() {
		snap.Now = now
		snap.MeasuredTotalW = env.Rack.MeasuredPower()
		snap.CBPowerW = env.Rack.TruePower()
		s.Tick(env, snap)
		env.Rack.AdvanceBatch(scn.DtS, now)
		now += scn.DtS
	}
	for i := 0; i < 120; i++ {
		tick() // steady state: caches warm, buffers at capacity
	}
	n := 600
	if quick {
		n = 200
	}
	allocs := testing.AllocsPerRun(n, tick)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tick()
	}
	wall := time.Since(t0)
	return Scenario{Name: "tick_loop", Metrics: map[string]float64{
		"allocs_per_tick": allocs,
		"ns_per_tick":     float64(wall.Nanoseconds()) / float64(n),
	}}
}

// traceOverhead measures what the observability plane costs on the tick
// path: the same steady-state loop as tick_loop, once with the plane
// disabled (a nil *obs.Plane — the tick must stay allocation-free) and once
// attached (span events, rollup pushes and detectors live). The on/off wall
// ratio is trace_overhead; both sides run in the same process, so the ratio
// survives machine changes.
func traceOverhead(quick bool) Scenario {
	run := func(plane *obs.Plane) (allocs, nsPerTick float64) {
		scn := sim.DefaultScenario()
		env, err := sim.BuildEnv(scn)
		if err != nil {
			fatal(err)
		}
		env.Obs = plane
		s := core.New(core.DefaultConfig())
		if err := s.Start(env, scn); err != nil {
			fatal(err)
		}
		snap := sim.Snapshot{Dt: scn.DtS, UPSSoC: env.UPS.SoC()}
		now := 0.0
		tick := func() {
			snap.Now = now
			snap.MeasuredTotalW = env.Rack.MeasuredPower()
			snap.CBPowerW = env.Rack.TruePower()
			s.Tick(env, snap)
			env.Rack.AdvanceBatch(scn.DtS, now)
			now += scn.DtS
		}
		for i := 0; i < 120; i++ {
			tick()
		}
		n := 600
		if quick {
			n = 200
		}
		allocs = testing.AllocsPerRun(n, tick)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tick()
		}
		return allocs, float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	offAllocs, offNs := run(nil)
	onAllocs, onNs := run(obs.NewPlane(0, obs.DefaultDetectorConfig()))
	return Scenario{Name: "trace_overhead", Metrics: map[string]float64{
		"allocs_per_tick":     offAllocs, // zero-alloc contract with obs off
		"allocs_per_tick_obs": onAllocs,  // informational: span growth amortizes
		"obs_off_ns":          offNs,
		"obs_on_ns":           onNs,
		"trace_overhead":      onNs / math.Max(1, offNs),
	}}
}

// mpcSweeps runs the default closed-loop scenario instrumented and reports
// the mean QP ψ evaluations per MPC solve (warm-started, as in production)
// and the solves that missed tolerance. Both are deterministic.
func mpcSweeps(quick bool) Scenario {
	scn := sim.DefaultScenario()
	if quick {
		scn.DurationS = 300
	}
	reg := telemetry.NewRegistry()
	res, err := sim.RunWith(scn, core.New(core.DefaultConfig()), sim.RunOptions{Metrics: reg})
	if err != nil {
		fatal(err)
	}
	p, ok := res.Telemetry.Get("qp_iterations")
	if !ok || p.Count == 0 {
		fatal(fmt.Errorf("qp_iterations missing from telemetry"))
	}
	u, _ := res.Telemetry.Value("qp_unconverged_total")
	return Scenario{Name: "mpc_sweeps", Metrics: map[string]float64{
		"mean_sweeps_warm": p.Value / float64(p.Count),
		"unconverged_warm": u,
	}}
}

// diurnalScenario builds the pinned event-engine workload: deterministic
// plant (no monitor noise, utilization jitter or ambient swing) under a
// stepped-diurnal demand trace whose plateau levels sit in the settling
// regime (the capped closed loop reaches an exact fixed point there; at
// lighter levels the quantized batch actuator hunts forever and the event
// engine honestly refuses to fast-forward). Rack index i offsets the seeds
// the way cluster and hier sweeps do.
func diurnalScenario(i int, durationS, plateauS float64) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.DurationS = durationS
	scn.BurstDurationS = durationS
	scn.AmbientSwingC = 0
	scn.Rack.MonitorNoiseStd = 0
	scn.Rack.UtilJitterStd = 0
	scn.BatchSpecs = workload.SteadyStateSpecs()
	tr, err := workload.SteppedDiurnal([]float64{0.5, 0.62, 0.75, 0.55}, plateauS, durationS, scn.DtS)
	if err != nil {
		fatal(err)
	}
	scn.Trace = tr
	g := int64(i)
	scn.Interactive.Seed += g
	scn.Rack.Seed += g
	scn.Faults.Seed += g
	return scn
}

// noSprintConfig is the policy for the diurnal scenarios: classic power
// capping at the breaker rating, which is the regime where quiescent spans
// open (an active overload schedule keeps the plant moving).
func noSprintConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NoSprint = true
	return cfg
}

// seriesBitIdentical reports 1 when every recorded series column of the two
// results is bit-for-bit equal, else 0.
func seriesBitIdentical(a, b *sim.Result) float64 {
	x, y := &a.Series, &b.Series
	cols := [][2][]float64{
		{x.Time, y.Time}, {x.TotalW, y.TotalW}, {x.CBW, y.CBW},
		{x.UPSW, y.UPSW}, {x.PCbW, y.PCbW}, {x.PBatchW, y.PBatchW},
		{x.FreqInter, y.FreqInter}, {x.FreqBatch, y.FreqBatch},
		{x.SoC, y.SoC}, {x.Demand, y.Demand},
	}
	for _, c := range cols {
		if len(c[0]) != len(c[1]) {
			return 0
		}
		for i := range c[0] {
			if math.Float64bits(c[0][i]) != math.Float64bits(c[1][i]) {
				return 0
			}
		}
	}
	return 1
}

// eventEngine pins the discrete-event engine against the tick engine on a
// single-rack diurnal run: bitwise identity of the recorded series, the
// in-process speedup, the fraction of plant ticks the engine closed
// analytically, and the marginal heap allocations per discrete event.
//
// The allocation metric is a two-point measurement: two event runs whose
// durations differ 2× but whose series stride scales with duration, so both
// record the same number of ticks and every per-run and series-append
// allocation cancels in the difference. What remains is the steady-state
// marginal cost of planning and closing additional spans — the zero-alloc
// contract of the event core.
func eventEngine(quick bool) Scenario {
	d1 := 7200.0
	if quick {
		d1 = 3600
	}
	d2 := 2 * d1
	cfg := noSprintConfig()

	countAllocs := func(durationS float64) (float64, *sim.Result) {
		scn := diurnalScenario(0, durationS, 900)
		stride := int(durationS) / 12
		p := core.New(cfg)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := sim.RunWith(scn, p, sim.RunOptions{Engine: "event", SeriesStride: stride, DropEvents: true})
		runtime.ReadMemStats(&m1)
		if err != nil {
			fatal(err)
		}
		return float64(m1.Mallocs - m0.Mallocs), res
	}
	countAllocs(d1) // warm-up: page in code paths, steady the heap
	a1, r1 := countAllocs(d1)
	a2, r2 := countAllocs(d2)
	dEvents := float64(r2.Engine.Events - r1.Engine.Events)
	allocsPerEvent := (a2 - a1) / math.Max(1, dEvents)
	if allocsPerEvent < 0 {
		allocsPerEvent = 0
	}

	scn := diurnalScenario(0, d1, 900)
	p := core.New(cfg)
	t0 := time.Now()
	tickRes, err := sim.RunWith(scn, p, sim.RunOptions{Engine: "tick"})
	tickNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		fatal(err)
	}
	p = core.New(cfg)
	t0 = time.Now()
	eventRes, err := sim.RunWith(scn, p, sim.RunOptions{Engine: "event"})
	eventNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		fatal(err)
	}

	totalTicks := scn.DurationS / scn.DtS
	return Scenario{Name: "event_engine", Metrics: map[string]float64{
		"bit_identical":      seriesBitIdentical(tickRes, eventRes),
		"speedup_event":      tickNs / math.Max(1, eventNs),
		"tick_ns":            tickNs,
		"event_ns":           eventNs,
		"spans":              float64(eventRes.Engine.Spans),
		"ticks_skipped_frac": float64(eventRes.Engine.TicksSkipped) / totalTicks,
		"allocs_per_event":   allocsPerEvent,
	}}
}

// clusterSweep is the tentpole scale scenario: a 1000-rack day-long
// stepped-diurnal fleet (hourly plateaus) run rack-independent under the
// event engine on the worker pool. A rack subset runs serially under both
// engines for the in-process engine speedup and a bit-identical check at
// every control period (the subset records every control boundary; the
// recorded P_cb/P_batch targets are the controller's decisions, so bitwise
// equality pins decision equivalence there).
func clusterSweep(quick bool) Scenario {
	racks, durationS, subset := 1000, 86400.0, 8
	if quick {
		racks, durationS, subset = 24, 7200.0, 2
	}
	const plateauS = 3600
	cfg := noSprintConfig()
	// Record every control-period boundary on the subset runs: with dt=1 s
	// and the 4 s control period, stride 4 lands every recorded tick on a
	// controller decision.
	ctlStride := int(cfg.ControlPeriodS / sim.DefaultScenario().DtS)

	bitIdentical := 1.0
	var tickNs, eventNs float64
	for i := 0; i < subset; i++ {
		scn := diurnalScenario(i, durationS, plateauS)
		t0 := time.Now()
		tickRes, err := sim.RunWith(scn, core.New(cfg), sim.RunOptions{Engine: "tick", SeriesStride: ctlStride})
		tickNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			fatal(err)
		}
		t0 = time.Now()
		eventRes, err := sim.RunWith(scn, core.New(cfg), sim.RunOptions{Engine: "event", SeriesStride: ctlStride})
		eventNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			fatal(err)
		}
		if seriesBitIdentical(tickRes, eventRes) == 0 {
			bitIdentical = 0
		}
	}

	// The full fleet, rack-independent on the worker pool, event engine,
	// hourly series stride (memory stays bounded at building scale).
	jobs := make([]sim.Job, racks)
	for i := range jobs {
		jobs[i] = sim.Job{
			Key:      fmt.Sprintf("rack%d", i),
			Scenario: diurnalScenario(i, durationS, plateauS),
			Policy:   core.New(cfg),
			Opts:     sim.RunOptions{Engine: "event", SeriesStride: 3600},
		}
	}
	t0 := time.Now()
	results, err := sim.RunManyOrdered(jobs)
	fleetNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		fatal(err)
	}
	var spans, skipped int
	for _, r := range results {
		spans += r.Engine.Spans
		skipped += r.Engine.TicksSkipped
	}
	totalTicks := float64(racks) * durationS / sim.DefaultScenario().DtS

	return Scenario{Name: "cluster_sweep", Metrics: map[string]float64{
		"racks":              float64(racks),
		"bit_identical":      bitIdentical,
		"speedup_event":      tickNs / math.Max(1, eventNs),
		"tick_subset_ns":     tickNs,
		"event_subset_ns":    eventNs,
		"fleet_event_ns":     fleetNs,
		"spans":              float64(spans),
		"ticks_skipped_frac": float64(skipped) / totalTicks,
	}}
}

// clusterLink measures what the control link costs when the network is
// clean: the same cluster stepped through RunLinked (transport, leases,
// heartbeats and coordinator in the loop every tick) vs the static
// phase-offset Run. With no faults on the wire the link must be near-free —
// the overhead ratio is the regression gate — every lease must renew on
// schedule (zero degraded seconds), and the linked parallel and serial
// sweeps must stay bit-identical.
func clusterLink(quick bool) Scenario {
	cfg := cluster.DefaultConfig()
	if quick {
		cfg.NumRacks = 2
		cfg.Scenario.DurationS = 300
		// Rescale the feeder to the smaller group: N rated draws plus one
		// funded overload slot, mirroring DefaultConfig's provisioning rule.
		rated := cfg.Scenario.Breaker.RatedPower
		cfg.FeederBudgetW = float64(cfg.NumRacks)*rated + 0.25*rated
	}

	t0 := time.Now()
	if _, err := cluster.Run(cfg); err != nil {
		fatal(err)
	}
	staticNs := float64(time.Since(t0).Nanoseconds())

	linkedCfg := cfg
	linkedCfg.Link.Enabled = true
	timeLinked := func(c cluster.Config) (*cluster.LinkedResult, float64) {
		t0 := time.Now()
		res, err := cluster.RunLinked(c)
		if err != nil {
			fatal(err)
		}
		return res, float64(time.Since(t0).Nanoseconds())
	}
	serialCfg := linkedCfg
	serialCfg.Serial = true
	serialRes, _ := timeLinked(serialCfg)
	parRes, linkedNs := timeLinked(linkedCfg)

	return Scenario{Name: "cluster_link", Metrics: map[string]float64{
		"static_ns":          staticNs,
		"linked_ns":          linkedNs,
		"link_overhead":      linkedNs / math.Max(1, staticNs),
		"bit_identical_link": racksEqual(&parRes.Result, &serialRes.Result),
		"degraded_s":         parRes.DegradedS(),
		"feeder_trips":       float64(parRes.FeederTrips),
	}}
}

// clusterHier measures the hierarchical control plane: the building run
// with linked rows (parallel vs serial bit-identity, plus the degraded
// seconds and per-level shadow-breaker record, which must stay zero on a
// clean network) and the row-sharded static sweep (bit-identity and the
// parallel speedup over the serial path).
func clusterHier(quick bool) Scenario {
	cfg := hier.DefaultConfig()
	if quick {
		cfg.Rows = []hier.RowConfig{{Racks: 4}, {Racks: 4}}
		cfg.Scenario.DurationS = 300
	}

	timeLinked := func(c hier.Config) (*hier.Result, float64) {
		t0 := time.Now()
		res, err := hier.RunLinked(c)
		if err != nil {
			fatal(err)
		}
		return res, float64(time.Since(t0).Nanoseconds())
	}
	serialCfg := cfg
	serialCfg.Serial = true
	serialRes, _ := timeLinked(serialCfg)
	parRes, linkedNs := timeLinked(cfg)

	timeSweep := func(c hier.Config) (*hier.SweepResult, float64) {
		t0 := time.Now()
		res, err := hier.RunSweep(c)
		if err != nil {
			fatal(err)
		}
		return res, float64(time.Since(t0).Nanoseconds())
	}
	sweepSerialRes, sweepSerialNs := timeSweep(serialCfg)
	sweepParRes, sweepNs := timeSweep(cfg)

	trips := parRes.BuildingTrips
	for _, n := range parRes.RowTrips() {
		trips += n
	}

	return Scenario{Name: "cluster_hier", Metrics: map[string]float64{
		"hier_linked_ns":       linkedNs,
		"hier_sweep_ns":        sweepNs,
		"hier_sweep_serial_ns": sweepSerialNs,
		"speedup_sweep":        sweepSerialNs / math.Max(1, sweepNs),
		"bit_identical_hier":   hierEqual(parRes, serialRes),
		"bit_identical_sweep":  sweepEqual(sweepParRes, sweepSerialRes),
		"degraded_s":           parRes.DegradedS(),
		"feeder_trips":         float64(trips),
	}}
}

// hierEqual returns 1 when every row of the two hierarchical linked
// results is bit-for-bit equal (per-rack series and building aggregate),
// else 0.
func hierEqual(p, q *hier.Result) float64 {
	if len(p.Rows) != len(q.Rows) {
		return 0
	}
	for i := range p.Rows {
		if racksEqual(&p.Rows[i].Result, &q.Rows[i].Result) == 0 {
			return 0
		}
	}
	for t := range p.BuildingAggregateW {
		if p.BuildingAggregateW[t] != q.BuildingAggregateW[t] {
			return 0
		}
	}
	return 1
}

// sweepEqual returns 1 when every rack series of the two sharded sweeps is
// bit-for-bit equal, else 0.
func sweepEqual(p, q *hier.SweepResult) float64 {
	if len(p.Rows) != len(q.Rows) {
		return 0
	}
	for r := range p.Rows {
		if len(p.Rows[r]) != len(q.Rows[r]) {
			return 0
		}
		for j := range p.Rows[r] {
			a, b := p.Rows[r][j].Series, q.Rows[r][j].Series
			if len(a.TotalW) != len(b.TotalW) {
				return 0
			}
			for t := range a.TotalW {
				if a.TotalW[t] != b.TotalW[t] || a.CBW[t] != b.CBW[t] || a.SoC[t] != b.SoC[t] {
					return 0
				}
			}
		}
	}
	return 1
}

// racksEqual returns 1 when every per-rack, per-tick series of the two
// cluster results is bit-for-bit equal, else 0.
func racksEqual(p, q *cluster.Result) float64 {
	if len(p.Racks) != len(q.Racks) {
		return 0
	}
	for i := range p.Racks {
		a, b := p.Racks[i].Series, q.Racks[i].Series
		if len(a.TotalW) != len(b.TotalW) {
			return 0
		}
		for t := range a.TotalW {
			if a.TotalW[t] != b.TotalW[t] || a.CBW[t] != b.CBW[t] || a.SoC[t] != b.SoC[t] ||
				a.FreqBatch[t] != b.FreqBatch[t] || a.FreqInter[t] != b.FreqInter[t] {
				return 0
			}
		}
	}
	return 1
}

// loadBaseline reads a baseline report strictly: unknown fields are
// rejected and every parse error names the offending location, so a typo in
// a hand-edited baseline (a misspelled metric section, a stray comma) fails
// the gate loudly instead of silently comparing against zero values. The
// not-exists error passes through untouched for the caller's skip path.
func loadBaseline(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()

	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var base Report
	if err := dec.Decode(&base); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			return Report{}, fmt.Errorf("baseline %s: byte %d: %v", path, syn.Offset, err)
		case errors.As(err, &typ):
			return Report{}, fmt.Errorf("baseline %s: field %q (byte %d): %v", path, typ.Field, typ.Offset, err)
		default:
			// DisallowUnknownFields errors already carry the field name.
			return Report{}, fmt.Errorf("baseline %s: %v", path, err)
		}
	}
	// One document per file: trailing content means a concatenated or
	// corrupt baseline.
	if dec.More() {
		return Report{}, fmt.Errorf("baseline %s: trailing data after the report document", path)
	}
	if base.Schema != schemaVersion {
		return Report{}, fmt.Errorf("baseline %s: schema %q, this binary writes %q", path, base.Schema, schemaVersion)
	}
	return base, nil
}

// compare checks the report against the baseline and returns 1 on
// regression. Rules by metric name:
//
//	allocs_per_tick, allocs_per_event — may not exceed baseline + 0.01
//	bit_identical*        — may not drop below baseline
//	*sweeps* (not "spans"), *unconverged* (lower better) — may not exceed
//	                        baseline × 1.2
//	speedup_*, sweep_reduction (higher better) — may not drop below × 0.8
//	ticks_skipped_frac (higher better) — may not drop below × 0.9 (the
//	                        event engine must keep closing spans)
//	*_overhead (in-process wall ratio, lower better) — may not exceed
//	                        × 1.3 (both sides measured in the same process,
//	                        so the ratio survives machine changes)
//	degraded_s, feeder_trips — may not exceed baseline (zero in the pinned
//	                        fault-free link scenario)
//	*_ns (wall clock)     — only with -wall: may not exceed × 1.2
//
// A scenario whose GOMAXPROCS differs from the baseline's is skipped with a
// warning: parallel-path ratios measured at different core counts are not
// comparable, and silently holding them to the old bound would gate on the
// machine, not the code. (Baselines without per-scenario core counts —
// written before the field existed — compare as before.)
func compare(rep Report, path string, wall bool) int {
	base, err := loadBaseline(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "bench: no baseline at %s; skipping comparison\n", path)
			return 0
		}
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if base.Quick != rep.Quick {
		fmt.Fprintf(os.Stderr, "bench: baseline quick=%v but run quick=%v; skipping comparison (sweep counts are duration-dependent)\n", base.Quick, rep.Quick)
		return 0
	}

	baseScenarios := map[string]Scenario{}
	for _, s := range base.Scenarios {
		baseScenarios[s.Name] = s
	}
	regressions := 0
	for _, s := range rep.Scenarios {
		bs, ok := baseScenarios[s.Name]
		if !ok || bs.Metrics == nil {
			continue
		}
		if bs.GOMAXPROCS != 0 && bs.GOMAXPROCS != s.GOMAXPROCS {
			fmt.Fprintf(os.Stderr,
				"bench: WARNING %s: baseline ran at GOMAXPROCS=%d, this run at %d; skipping its comparisons (not comparable across core counts)\n",
				s.Name, bs.GOMAXPROCS, s.GOMAXPROCS)
			continue
		}
		bm := bs.Metrics
		for name, cur := range s.Metrics {
			ref, ok := bm[name]
			if !ok {
				continue
			}
			bad := false
			var rule string
			switch {
			case name == "allocs_per_tick" || name == "allocs_per_event":
				bad = cur > ref+0.01
				rule = "must not exceed baseline"
			case strings.HasPrefix(name, "bit_identical"):
				bad = cur < ref
				rule = "must not drop"
			case strings.HasSuffix(name, "_ns"):
				if !wall {
					continue
				}
				bad = cur > ref*1.2
				rule = "wall clock >20% slower"
			case strings.Contains(name, "sweeps") || strings.Contains(name, "unconverged"):
				bad = cur > ref*1.2+1e-9
				rule = ">20% more solver work"
			case strings.HasPrefix(name, "speedup") || name == "sweep_reduction" || name == "parallel_speedup":
				bad = cur < ref*0.8
				rule = ">20% speedup loss"
			case name == "ticks_skipped_frac":
				bad = cur < ref*0.9
				rule = ">10% span-coverage loss"
			case strings.HasSuffix(name, "_overhead"):
				bad = cur > ref*1.3
				rule = ">30% overhead growth"
			case name == "degraded_s" || name == "feeder_trips":
				bad = cur > ref+1e-9
				rule = "must not exceed baseline"
			default:
				continue
			}
			if bad {
				fmt.Fprintf(os.Stderr, "bench: REGRESSION %s/%s: %.4g vs baseline %.4g (%s)\n",
					s.Name, name, cur, ref, rule)
				regressions++
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d regression(s) against %s\n", regressions, path)
		return 1
	}
	fmt.Printf("bench: no regressions against %s\n", path)
	return 0
}
