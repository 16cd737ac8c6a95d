package sprintcon

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (plus the DESIGN.md ablations). Each benchmark
// regenerates its artifact end-to-end — workload generation, simulation,
// controllers, baselines — and reports domain-specific metrics alongside
// ns/op. Run everything with:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock numbers measure this reproduction's simulator, not
// the authors' testbed; the reported custom metrics (DoD, frequencies,
// time use) are the quantities to compare against the paper.

import (
	"io"
	"testing"

	"sprintcon/internal/experiments"
	"sprintcon/internal/sim"
	"sprintcon/internal/workload"
)

// benchTable runs an experiment constructor once per iteration.
func benchTable(b *testing.B, f func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := f(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1PerWattSpeedup regenerates Fig. 1 (motivation: per-watt
// speedup falls as frequency rises).
func BenchmarkFig1PerWattSpeedup(b *testing.B) {
	benchTable(b, experiments.Fig1PerWattSpeedup)
}

// BenchmarkFig2TripCurve regenerates Fig. 2 (breaker trip-time curve).
func BenchmarkFig2TripCurve(b *testing.B) {
	benchTable(b, experiments.Fig2TripCurve)
}

// BenchmarkFig3PeriodicSprint regenerates Fig. 3 (18 s periodic sprinting).
func BenchmarkFig3PeriodicSprint(b *testing.B) {
	benchTable(b, experiments.Fig3PeriodicSprint)
}

// BenchmarkFig5Uncontrolled regenerates Fig. 5: the uncontrolled (SGCT)
// failure sequence — trip, UPS drain, outage.
func BenchmarkFig5Uncontrolled(b *testing.B) {
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = experiments.Fig5Uncontrolled()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CBTrips), "trips")
	b.ReportMetric(res.OutageS, "outage_s")
	b.ReportMetric(100*res.UPSDoD, "dod_%")
}

// BenchmarkFig6PowerBehavior regenerates Fig. 6: power behaviour of
// SprintCon vs SGCT-V1 vs SGCT-V2.
func BenchmarkFig6PowerBehavior(b *testing.B) {
	var all map[string]*sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, all, err = experiments.Fig6PowerBehavior()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(all["SprintCon"].UPSDischargedWh, "sprintcon_ups_wh")
	b.ReportMetric(all["SGCT-V1"].UPSDischargedWh, "v1_ups_wh")
}

// BenchmarkFig7FrequencyBehavior regenerates Fig. 7: the average normalized
// frequencies per policy (paper: 1.00/0.59, 0.64/0.71, 0.84/0.91, 0.94/0.84).
func BenchmarkFig7FrequencyBehavior(b *testing.B) {
	var res map[string]*sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAll(sim.DefaultScenario())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res["SprintCon"].AvgFreqInter, "sc_inter")
	b.ReportMetric(res["SprintCon"].AvgFreqBatch, "sc_batch")
	b.ReportMetric(res["SGCT-V2"].AvgFreqInter, "v2_inter")
	b.ReportMetric(res["SGCT-V1"].AvgFreqBatch, "v1_batch")
}

// BenchmarkFig8aTimeUse regenerates Fig. 8(a): normalized completion time
// across the 9/12/15-minute deadlines.
func BenchmarkFig8aTimeUse(b *testing.B) {
	benchTable(b, experiments.Fig8aTimeUse)
}

// BenchmarkFig8bDoD regenerates Fig. 8(b): UPS depth of discharge across
// deadlines and policies.
func BenchmarkFig8bDoD(b *testing.B) {
	benchTable(b, experiments.Fig8bDoD)
}

// BenchmarkHeadline regenerates the abstract's 6–56 % / up-to-87 % claims.
func BenchmarkHeadline(b *testing.B) {
	benchTable(b, experiments.Headline)
}

// BenchmarkAblationMPCvsPI regenerates ablation A1.
func BenchmarkAblationMPCvsPI(b *testing.B) {
	benchTable(b, experiments.AblationController)
}

// BenchmarkAblationOverloadSchedule regenerates ablation A2.
func BenchmarkAblationOverloadSchedule(b *testing.B) {
	benchTable(b, experiments.AblationOverloadSchedule)
}

// BenchmarkAblationUPSControl regenerates ablation A3.
func BenchmarkAblationUPSControl(b *testing.B) {
	benchTable(b, experiments.AblationUPSControl)
}

// BenchmarkSensitivity regenerates the A4 period/τ_r sweep.
func BenchmarkSensitivity(b *testing.B) {
	benchTable(b, experiments.Sensitivity)
}

// BenchmarkQoSComparison regenerates extension E10: interactive latency
// under each policy.
func BenchmarkQoSComparison(b *testing.B) {
	benchTable(b, experiments.QoSComparison)
}

// BenchmarkDailyCost regenerates extension E11: the 10-year cost of
// 10 sprints/day (paper Section VII-D economics).
func BenchmarkDailyCost(b *testing.B) {
	benchTable(b, experiments.DailyCost)
}

// BenchmarkClusterStagger regenerates extension E12: four racks on one
// feeder with synchronized vs staggered overload phases.
func BenchmarkClusterStagger(b *testing.B) {
	benchTable(b, experiments.ClusterStagger)
}

// BenchmarkAblationEstimation regenerates extension E13: online model
// estimation under a miscalibrated power model.
func BenchmarkAblationEstimation(b *testing.B) {
	benchTable(b, experiments.AblationEstimation)
}

// BenchmarkSprintConTick measures the per-tick cost of the full SprintCon
// control stack (allocator + MPC QP over 64 cores + UPS controller) on the
// default rack — the overhead a deployment would pay each control period.
func BenchmarkSprintConTick(b *testing.B) {
	scn := DefaultScenario()
	scn.DurationS = float64(b.N)
	if scn.DurationS < 60 {
		scn.DurationS = 60
	}
	scn.BurstDurationS = scn.DurationS
	scn.BatchDeadlineS = scn.DurationS * 0.8
	b.ResetTimer()
	if _, err := Run(scn, New(DefaultConfig())); err != nil {
		b.Fatal(err)
	}
}

// benchRunWith runs the default scenario repeatedly with the given options
// and reports per-tick cost, for comparing the telemetry tax.
func benchRunWith(b *testing.B, mkOpts func() RunOptions) {
	b.Helper()
	scn := DefaultScenario()
	scn.DurationS = 120
	scn.BurstDurationS = 120
	scn.BatchDeadlineS = 96
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(scn, New(DefaultConfig()), mkOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTelemetryOff is the baseline for the telemetry-tax pair: a
// run with no registry and no sink, i.e. the legacy hot path where every
// instrument is a nil no-op. Compare against BenchmarkRunTelemetryOn — the
// design requires the Off/On gap under ~2 % and Off to match plain Run.
func BenchmarkRunTelemetryOff(b *testing.B) {
	benchRunWith(b, func() RunOptions { return RunOptions{} })
}

// BenchmarkRunTelemetryOn measures the fully instrumented run: metrics
// registry plus a decision trace encoded to io.Discard.
func BenchmarkRunTelemetryOn(b *testing.B) {
	benchRunWith(b, func() RunOptions {
		return RunOptions{
			Metrics:   NewMetricsRegistry(),
			Decisions: NewDecisionSink(io.Discard),
		}
	})
}

// BenchmarkRunEventFleetDay measures the event engine on the workload it
// exists for: one day-long, deterministic, power-capped (NoSprint) rack
// under an hourly stepped-diurnal demand trace, run with RunEvent and one
// series sample per simulated hour — the per-rack operation of a fleet
// sweep. Profile the engine with
//
//	go test -run '^$' -bench RunEventFleetDay -cpuprofile cpu.out
func BenchmarkRunEventFleetDay(b *testing.B) {
	const dayS = 86400
	scn := DefaultScenario()
	scn.DurationS = dayS
	scn.BurstDurationS = dayS
	scn.AmbientSwingC = 0
	scn.Rack.MonitorNoiseStd = 0
	scn.Rack.UtilJitterStd = 0
	scn.BatchSpecs = workload.SteadyStateSpecs()
	tr, err := workload.SteppedDiurnal([]float64{0.5, 0.62, 0.75, 0.55}, 3600, dayS, scn.DtS)
	if err != nil {
		b.Fatal(err)
	}
	scn.Trace = tr
	cfg := DefaultConfig()
	cfg.NoSprint = true
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = RunWith(scn, New(cfg), RunOptions{Engine: "event", SeriesStride: 3600}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Engine.TicksSkipped)/dayS, "skipped_frac")
	b.ReportMetric(float64(res.Engine.Spans), "spans")
}
