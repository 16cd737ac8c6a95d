package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sprintcon/internal/sim"
)

// seedStride separates the rack index ranges of different seeds.
const seedStride = 1_000_003

// Rack index bases: measured racks count up from 0; warm-up and set-up
// racks draw from their own ranges so they never repeat a measured input.
const (
	warmBase  = 1 << 20
	setupBase = 1 << 21
)

// outcomeOps is how many of the first measured operations the simulated
// outcomes average over: a fixed set, so the outcomes are deterministic
// per seed whatever the machine's speed.
const outcomeOps = 8

// closedLoop runs op back to back (the next starts when the previous
// returns) until d seconds have elapsed; the operation in flight when the
// window closes completes and counts. It returns each operation's span and
// the window's elapsed seconds.
func closedLoop(d float64, op func(i int) error) (ops []span, elapsed float64, err error) {
	start := time.Now()
	for i := 0; since(start) < d; i++ {
		t0 := since(start)
		if err := op(i); err != nil {
			return nil, 0, err
		}
		ops = append(ops, span{t0, since(start)})
	}
	return ops, since(start), nil
}

// rackSummary is what the integrity and outcome checks compare of a rack.
type rackSummary struct {
	engine            sim.EngineStats
	trips, misses     int
	jobs              int
	dod, freqInter    float64
	outageS, energyWh float64
}

func summarize(r *sim.Result) rackSummary {
	return rackSummary{
		engine: r.Engine, trips: r.CBTrips, misses: r.DeadlineMisses, jobs: r.JobsTotal,
		dod: r.UPSDoD, freqInter: r.AvgFreqInter, outageS: r.OutageS, energyWh: r.EnergyTotalWh,
	}
}

// outcomes accumulates the simulated outcomes over a fixed rack set.
type outcomes struct {
	racks, trips, misses, jobs int
	dodSum, freqSum            float64
}

func (o *outcomes) add(s rackSummary) {
	o.racks++
	o.trips += s.trips
	o.misses += s.misses
	o.jobs += s.jobs
	o.dodSum += s.dod
	o.freqSum += s.freqInter
}

func (o *outcomes) freqInter() float64 { return o.freqSum / math.Max(1, float64(o.racks)) }

// set prints the simulated outcomes and the failure fraction as
// traced-run metrics.
func (o *outcomes) set(rep *report) {
	rep.set("outcome.failed_frac", float64(rep.Failed)/math.Max(1, float64(rep.Attempted)))
	rep.set("outcome.cb_trips", float64(o.trips))
	rep.set("outcome.deadline_miss_frac", float64(o.misses)/math.Max(1, float64(o.jobs)))
	rep.set("outcome.ups_dod_pct", 100*o.dodSum/math.Max(1, float64(o.racks)))
}

// log prints the outcomes that are not end-to-end metrics (they are 0 on
// a healthy run, and a metric must never read 0).
func (o *outcomes) log(rep *report) {
	info("failed_frac=%g cb_trips=%d deadline_miss_frac=%g ups_dod_pct=%g (over %d racks)",
		float64(rep.Failed)/math.Max(1, float64(rep.Attempted)), o.trips,
		float64(o.misses)/math.Max(1, float64(o.jobs)), 100*o.dodSum/math.Max(1, float64(o.racks)), o.racks)
}

// setTurnaround prints the median and tail of the operation latencies.
func setTurnaround(rep *report, ops []span) {
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = o.end - o.start
	}
	v, p, n := tail(lat)
	sort.Float64s(lat)
	rep.set("turnaround_p50_s", nearestRank(lat, 0.5))
	rep.set("turnaround_tail_s", v)
	info("turnaround_tail_s is p%.1f of %d operations", 100*p, n)
}

// equalResults reports the first difference between two runs of the same
// rack: every recorded series sample, bit for bit, and the summary.
func equalResults(a, b *sim.Result) error {
	x, y := &a.Series, &b.Series
	cols := []struct {
		name string
		a, b []float64
	}{
		{"time", x.Time, y.Time}, {"total_w", x.TotalW, y.TotalW}, {"cb_w", x.CBW, y.CBW},
		{"ups_w", x.UPSW, y.UPSW}, {"pcb_w", x.PCbW, y.PCbW}, {"pbatch_w", x.PBatchW, y.PBatchW},
		{"freq_inter", x.FreqInter, y.FreqInter}, {"freq_batch", x.FreqBatch, y.FreqBatch},
		{"soc", x.SoC, y.SoC}, {"demand", x.Demand, y.Demand},
	}
	for _, c := range cols {
		if len(c.a) != len(c.b) {
			return fmt.Errorf("series %s has %d vs %d samples", c.name, len(c.a), len(c.b))
		}
		for i := range c.a {
			if math.Float64bits(c.a[i]) != math.Float64bits(c.b[i]) {
				return fmt.Errorf("series %s differs at sample %d: %v vs %v", c.name, i, c.a[i], c.b[i])
			}
		}
	}
	sa, sb := summarize(a), summarize(b)
	sa.engine, sb.engine = sim.EngineStats{}, sim.EngineStats{} // engines may differ
	if sa != sb {
		return fmt.Errorf("summaries differ: %+v vs %+v", sa, sb)
	}
	return nil
}
