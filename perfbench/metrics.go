package main

// decl declares one metric: its name and unit. BENCHMARK.json lists the
// same metrics; main_test.go keeps the two in step.
type decl struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload prints all of
// them with -trace 0.
var endToEnd = []decl{
	{"rack_s_per_wall_s", "rack_s/s"},
	{"setup_s", "s"},
	{"turnaround_p50_s", "s"},
	{"turnaround_tail_s", "s"},
	{"peak_rss_mb", "MB"},
	{"avg_freq_inter", "ratio"},
}

// perLayer is what the traced run (-trace 1) prints, named by module.
// Every workload prints every one; a layer a workload does not exercise
// reads 0 (README.md lists which apply where).
var perLayer = []decl{
	{"sim.setup_ms_per_rack", "ms"},
	{"sim.plant_us_per_tick", "us"},
	{"sim.ticks_stepped", "count"},
	{"sim.allocs_per_tick", "count"},
	{"sim.pool_speedup", "x"},
	{"sim.pool_wait_share", "ratio"},
	{"core.tick_us", "us"},
	{"core.self_us_per_tick", "us"},
	{"control.mpc_solve_us", "us"},
	{"control.mpc_solve_tail_us", "us"},
	{"control.mpc_solves", "count"},
	{"control.mpc_share", "ratio"},
	{"qp.iters_per_solve", "count"},
	{"qp.unconverged", "count"},
	{"qp.cache_hit_ratio", "ratio"},
	{"engine.ticks_skipped_frac", "ratio"},
	{"engine.spans_per_rack_day", "count"},
	{"engine.events_per_rack_day", "count"},
	{"engine.overhead_share", "ratio"},
	{"hier.row_tick_us", "us"},
	{"hier.row_tick_tail_us", "us"},
	{"hier.row_speedup", "x"},
	{"cluster.link_overhead", "x"},
	{"link.grants_sent", "count"},
	{"link.beats_sent", "count"},
	{"link.degraded_s", "s"},
	{"checkpoint.captures", "count"},
	{"checkpoint.bytes_per_rack", "bytes"},
	{"checkpoint.sink_ms", "ms"},
	{"obs.alerts", "count"},
	{"obs.spans_per_rack", "count"},
	{"telemetry.decision_bytes_per_rack", "bytes"},
	{"sprintd.submit_ms", "ms"},
	{"sprintd.queue_wait_s", "s"},
	{"sprintd.run_s", "s"},
	{"sprintd.first_decision_ms", "ms"},
	{"sprintd.stream_lag_ms", "ms"},
	{"sprintd.rejected", "count"},
	{"sprintd.journal_bytes_per_run", "bytes"},
	{"outcome.failed_frac", "ratio"},
	{"outcome.cb_trips", "count"},
	{"outcome.deadline_miss_frac", "ratio"},
	{"outcome.ups_dod_pct", "%"},
	{"trace.overhead", "ratio"},
	{"trace.unexplained_share", "ratio"},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, ds := range [][]decl{endToEnd, perLayer} {
		for _, d := range ds {
			m[d.name] = d.unit
		}
	}
	return m
}()

func declaredIn(ds []decl, name string) bool {
	for _, d := range ds {
		if d.name == name {
			return true
		}
	}
	return false
}

// size scales a workload. fullSize is the benchmark; tests use tinySize.
type size struct {
	warmS     float64 // untimed warm-up before the measured window
	setupReps int     // set-up repetitions; setup_s is their median

	sprintDurS     float64 // simulated seconds per rack_sprint rack
	sprintSetup    int     // racks built per rack_sprint set-up repetition
	fleetDurS      float64 // simulated seconds per fleet rack
	fleetSetup     int     // operations built per fleet set-up repetition
	fleetCheckS    float64 // shortened window of the tick ≡ event check
	serviceRows    int
	serviceRacks   int     // racks per row
	serviceDurS    float64 // simulated seconds per service run
	serviceSpecs   int     // distinct specs the service clients cycle through
	serviceMemRuns int     // runs a fresh sprintd serves for peak_rss_mb
}

var fullSize = size{
	warmS: 1, setupReps: 9,
	sprintDurS: 900, sprintSetup: 128,
	fleetDurS: 86400, fleetSetup: 8, fleetCheckS: 14400,
	serviceRows: 2, serviceRacks: 3, serviceDurS: 900, serviceSpecs: 16, serviceMemRuns: 16,
}

var tinySize = size{
	warmS: 0, setupReps: 2,
	sprintDurS: 120, sprintSetup: 2,
	fleetDurS: 14400, fleetSetup: 1, fleetCheckS: 7200,
	serviceRows: 2, serviceRacks: 2, serviceDurS: 120, serviceSpecs: 2, serviceMemRuns: 2,
}
