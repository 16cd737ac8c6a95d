package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sprintcon/internal/core"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// timedPolicy times SprintCon's Tick from outside the program. It embeds
// *core.SprintCon and overrides only Tick, so method promotion keeps the
// sim.QuiescentPolicy, sim.Checkpointable and sim.TargetReporter contracts
// and the event engine fast-forwards exactly as it does untraced.
type timedPolicy struct {
	*core.SprintCon
	tickNs int64
	ticks  int
}

func (p *timedPolicy) Tick(env *sim.Env, s sim.Snapshot) float64 {
	t0 := time.Now()
	u := p.SprintCon.Tick(env, s)
	p.tickNs += int64(time.Since(t0))
	p.ticks++
	return u
}

// rackTrace is one traced rack: wall time in sim.NewRunner, in stepping
// (the Runner.Step loop, or Runner.RunEvent), in Runner.Finish, and in
// Policy.Tick.
type rackTrace struct {
	setupNs, runNs, finishNs int64
	tickNs                   int64
	ticks                    int
}

// traceRack runs one rack with the timing wrapper around pol. With a
// telemetry registry in opts the run reports the MPC and QP instruments;
// the event engine must run without one (a registry disables
// fast-forward), so event runs leave opts.Metrics nil.
func traceRack(scn sim.Scenario, pol *core.SprintCon, opts sim.RunOptions) (*sim.Result, rackTrace, error) {
	p := &timedPolicy{SprintCon: pol}
	var tr rackTrace
	t0 := time.Now()
	r, err := sim.NewRunner(scn, p, opts)
	if err != nil {
		return nil, tr, err
	}
	t1 := time.Now()
	if opts.Engine == "event" {
		err = r.RunEvent()
	} else {
		for !r.Done() && err == nil {
			err = r.Step()
		}
	}
	if err != nil {
		return nil, tr, err
	}
	t2 := time.Now()
	res := r.Finish()
	t3 := time.Now()
	tr.setupNs, tr.runNs, tr.finishNs = int64(t1.Sub(t0)), int64(t2.Sub(t1)), int64(t3.Sub(t2))
	tr.tickNs, tr.ticks = p.tickNs, p.ticks
	return res, tr, nil
}

// batches runs f(0..n-1) the way sim.RunManyOrdered runs a sweep: in
// consecutive batches of size racks, one goroutine per rack, each batch
// waiting for its slowest rack. It returns the worker time spent waiting at
// batch ends (the pool's straggler wait) and the first error by index.
func batches(n, size int, f func(i int) (int64, error)) (waitNs int64, err error) {
	errs := make([]error, n)
	walls := make([]int64, n)
	for b := 0; b < n; b += size {
		e := min(b+size, n)
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := b; i < e; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				walls[i], errs[i] = f(i)
			}(i)
		}
		wg.Wait()
		batchNs := int64(time.Since(t0))
		for i := b; i < e; i++ {
			waitNs += batchNs - walls[i]
		}
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return waitNs, nil
}

// hist merges telemetry histograms with identical bucket bounds.
type hist struct {
	count  uint64
	sum    float64
	bounds []float64
	cum    []uint64 // cumulative counts per bound
}

func (h *hist) add(p telemetry.Point) {
	h.count += p.Count
	h.sum += p.Value
	if h.bounds == nil {
		for _, b := range p.Buckets {
			h.bounds = append(h.bounds, b.UpperBound)
		}
		h.cum = make([]uint64, len(p.Buckets))
	}
	for i, b := range p.Buckets {
		if i < len(h.cum) {
			h.cum[i] += b.Count
		}
	}
}

func (h *hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// tailBound returns the upper bound of the bucket holding the tail (the
// sample with ten beyond it, as tail defines it); histogram resolution
// limits it to bucket bounds, and the overflow bucket reports the last
// finite bound.
func (h *hist) tailBound() float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(1)
	if h.count > 10 {
		rank = h.count - 10
	}
	last := 0.0
	for i, c := range h.cum {
		if !math.IsInf(h.bounds[i], 1) {
			last = h.bounds[i]
		}
		if c >= rank {
			return last
		}
	}
	return last
}

// layers aggregates traced racks into per-layer totals.
type layers struct {
	racks                    int
	simS                     float64 // simulated rack-seconds
	setupNs, runNs, finishNs int64
	tickNs                   int64
	ticks                    int // Policy.Tick calls
	stepped, skipped         int // plant ticks stepped and fast-forwarded
	spans, events            int
	mpc, qpIters             hist
	unconverged, cacheHits   float64
}

func (l *layers) add(res *sim.Result, tr rackTrace) {
	l.racks++
	l.simS += res.Scenario.DurationS
	l.setupNs += tr.setupNs
	l.runNs += tr.runNs
	l.finishNs += tr.finishNs
	l.tickNs += tr.tickNs
	l.ticks += tr.ticks
	total := int(math.Round(res.Scenario.DurationS / res.Scenario.DtS))
	l.stepped += total - res.Engine.TicksSkipped
	l.skipped += res.Engine.TicksSkipped
	l.spans += res.Engine.Spans
	l.events += res.Engine.Events
	l.addTelemetry(res.Telemetry)
}

// addTelemetry folds a run registry's MPC and QP instruments in.
func (l *layers) addTelemetry(s telemetry.Snapshot) {
	if p, ok := s.Get("mpc_solve_seconds"); ok {
		l.mpc.add(p)
	}
	if p, ok := s.Get("qp_iterations"); ok {
		l.qpIters.add(p)
	}
	if v, ok := s.Value("qp_unconverged_total"); ok {
		l.unconverged += v
	}
	if v, ok := s.Value("qp_cache_hits"); ok {
		l.cacheHits += v
	}
}

// setEngine prints the event engine's work counters.
func (l *layers) setEngine(rep *report) {
	days := l.simS / 86400
	rep.set("engine.ticks_skipped_frac", float64(l.skipped)/math.Max(1, float64(l.stepped+l.skipped)))
	rep.set("engine.spans_per_rack_day", float64(l.spans)/days)
	rep.set("engine.events_per_rack_day", float64(l.events)/days)
}

// wallNs is the racks' own wall time: set-up, stepping and finish.
func (l *layers) wallNs() int64 { return l.setupNs + l.runNs + l.finishNs }

func (tr rackTrace) wallNs() int64 { return tr.setupNs + tr.runNs + tr.finishNs }

// selfTime is one layer's self time in worker-nanoseconds.
type selfTime struct {
	layer string
	ns    float64
}

// setSelfTimes checks that the layer self-times and the pool's straggler
// wait add up to the traced phase's worker capacity (wall × workers): it
// prints each share and reports the unexplained remainder, so a layer
// the trace misses shows instead of being absorbed.
func (l *layers) setSelfTimes(rep *report, capacityNs float64, waitNs int64, parts []selfTime) {
	rest := capacityNs - float64(waitNs)
	msg := ""
	for _, p := range parts {
		rest -= p.ns
		msg += fmt.Sprintf(" %s=%.3f", p.layer, p.ns/capacityNs)
	}
	rep.set("sim.pool_wait_share", float64(waitNs)/capacityNs)
	rep.set("trace.unexplained_share", rest/capacityNs)
	info("self-time shares of %.3f worker-s:%s sim.pool_wait=%.3f unexplained=%.4f",
		capacityNs/1e9, msg, float64(waitNs)/capacityNs, rest/capacityNs)
}

// setControl prints the control and qp metrics. The instruments come from
// twin, whose solve count is rescaled from its own Policy.Tick calls to
// ticks calls over racks racks; wallNs is the racks' wall the MPC share is
// taken of. A workload that measured its instruments itself passes its own
// aggregate as twin.
func setControl(rep *report, twin *layers, ticks int, racks int, wallNs int64) {
	solves := float64(twin.mpc.count) * float64(ticks) / math.Max(1, float64(twin.ticks))
	mpcNs := solves * twin.mpc.mean() * 1e9
	rep.set("control.mpc_solve_us", twin.mpc.mean()*1e6)
	rep.set("control.mpc_solve_tail_us", twin.mpc.tailBound()*1e6)
	rep.set("control.mpc_solves", solves/math.Max(1, float64(racks)))
	rep.set("control.mpc_share", mpcNs/math.Max(1, float64(wallNs)))
	rep.set("qp.iters_per_solve", twin.qpIters.mean())
	rep.set("qp.unconverged", twin.unconverged)
	rep.set("qp.cache_hit_ratio", twin.cacheHits/math.Max(1, float64(twin.mpc.count)))
}

// zero sets every listed metric to 0: layers the workload does not
// exercise.
func zero(rep *report, names ...string) {
	for _, n := range names {
		rep.set(n, 0)
	}
}

// serviceOnly lists the per-layer metrics only service_linked exercises.
var serviceOnly = []string{
	"hier.row_tick_us", "hier.row_tick_tail_us", "hier.row_speedup",
	"cluster.link_overhead", "link.grants_sent", "link.beats_sent", "link.degraded_s",
	"checkpoint.captures", "checkpoint.bytes_per_rack", "checkpoint.sink_ms",
	"obs.alerts", "obs.spans_per_rack", "telemetry.decision_bytes_per_rack",
	"sprintd.submit_ms", "sprintd.queue_wait_s", "sprintd.run_s", "sprintd.first_decision_ms",
	"sprintd.stream_lag_ms", "sprintd.rejected", "sprintd.journal_bytes_per_run",
}

// allocsPerTick measures heap allocations per simulated tick of one
// untraced rack, excluding its set-up.
func allocsPerTick(scn sim.Scenario, p sim.Policy, opts sim.RunOptions) (float64, error) {
	r, err := sim.NewRunner(scn, p, opts)
	if err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if opts.Engine == "event" {
		err = r.RunEvent()
	} else {
		for !r.Done() && err == nil {
			err = r.Step()
		}
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, err
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(r.StepsTotal()), nil
}

// poolSpeedup times op at GOMAXPROCS=1 and at the current setting, in
// three interleaved pairs, and returns the ratio of the median walls.
func poolSpeedup(op func() error) (float64, error) {
	n := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(n)
	var one, all []float64
	for i := 0; i < 3; i++ {
		for _, procs := range []int{1, n} {
			runtime.GOMAXPROCS(procs)
			t0 := time.Now()
			if err := op(); err != nil {
				return 0, err
			}
			if procs == 1 {
				one = append(one, since(t0))
			} else {
				all = append(all, since(t0))
			}
		}
	}
	return median(one) / median(all), nil
}
