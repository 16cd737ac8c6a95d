package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"sprintcon/internal/breaker"
	"sprintcon/internal/checkpoint"
	"sprintcon/internal/core"
	"sprintcon/internal/link"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
)

// FeederTolerance is the relative slack applied before an aggregate-draw
// sample counts as a feeder exceedance. A correctly packed cluster sits
// *exactly* at the budget while SlotCapacity racks overload — the budget
// funds K overloads and the coordinator schedules K — so control-tracking
// noise alone reaches ~3% of the budget at the peaks. One *extra*
// uncoordinated overload adds a full bonus, rated·(degree−1), ≈5.6% of the
// default budget. The tolerance sits between the two: tracking noise does
// not count as an exceedance, a stolen overload slot always does. The
// hierarchical runner applies the same slack at the row and building
// levels, where the reasoning carries over unchanged.
const FeederTolerance = 0.035

// LinkedResult extends Result with the feeder safety record and the control
// link's accounting.
type LinkedResult struct {
	Result

	// StartStep is the first executed step: 0 for a fresh run, the resume
	// snapshots' step for a run resumed through Config.Resume. AggregateW
	// and the feeder statistics cover [StartStep, steps) only.
	StartStep int

	// FeederExceedFrac is the fraction of ticks the aggregate draw exceeded
	// the feeder budget by more than the tracking tolerance.
	FeederExceedFrac float64
	// FeederTrips counts trips of a shadow feeder breaker rated at the
	// budget (metric-only: power is never actually cut).
	FeederTrips int

	Transport link.TransportStats
	Coord     link.CoordStats
	// Clients holds each rack's lease-lifecycle counters, index = rack id.
	Clients []link.ClientStats
	// Invariants holds each rack's safety-invariant breach counters.
	Invariants []core.InvariantReport
}

// DegradedS sums degraded-mode seconds across racks.
func (r *LinkedResult) DegradedS() float64 {
	var s float64
	for _, c := range r.Clients {
		s += c.DegradedS
	}
	return s
}

// Resyncs sums degraded→coordinated recoveries across racks.
func (r *LinkedResult) Resyncs() int {
	var n int
	for _, c := range r.Clients {
		n += c.Resyncs
	}
	return n
}

// linkedPolicy adapts one rack's SprintCon to the control link: each tick it
// advances the rack's lease ladder, imposes the resulting budget on the
// controller (tighten-only), and caches the telemetry the next heartbeat
// carries. It forwards checkpointing with the link client's state embedded,
// so a crash-restore mid-partition resumes the ladder bit-identically.
type linkedPolicy struct {
	inner  *core.SprintCon
	client *link.Client
	ratedW float64
	cycleS float64
}

func (lp *linkedPolicy) Name() string { return lp.inner.Name() + "-linked" }

func (lp *linkedPolicy) Start(env *sim.Env, scn sim.Scenario) error {
	return lp.inner.Start(env, scn)
}

func (lp *linkedPolicy) Tick(env *sim.Env, snap sim.Snapshot) float64 {
	b := lp.client.Advance(snap.Now, snap.Dt)
	if !b.Degraded {
		// The degraded fallback freezes the schedule phase: overloads are
		// suspended anyway, and keeping the last offset means a re-sync to
		// an unchanged slot resumes seamlessly.
		//
		// Grant offsets are in the coordinator's absolute frame (schedule
		// anchored at t=0), but a fail-safe controller restart re-anchors
		// the allocator's square wave at the restart time. Fold the live
		// anchor into the offset so the rack's overload window lands in its
		// assigned slot whatever the anchor — otherwise a restarted rack
		// overloads shifted by (restart time mod cycle), on top of other
		// racks' slots, and the feeder exceeds the SlotCapacity bound.
		off := b.PhaseOffsetS
		if anchor := lp.inner.ScheduleAnchorS(); anchor != 0 {
			off = math.Mod(off+anchor, lp.cycleS)
			if off < 0 {
				off += lp.cycleS
			}
		}
		lp.inner.SetPhaseOffset(off)
	}
	lp.inner.SetExternalBudget(core.ExternalBudget{
		Active:        true,
		PCbCapW:       b.PCbCapW,
		AllowOverload: b.AllowOverload,
		AllowUPS:      b.AllowUPS,
	})
	req := lp.inner.Tick(env, snap)
	pcb, _ := lp.inner.Targets(snap.Now)
	lp.client.NoteTelemetry(snap.MeasuredTotalW, snap.UPSSoC,
		pcb > lp.ratedW*(1+1e-9), int(lp.inner.Mode()))
	return req
}

// Targets implements sim.TargetReporter.
func (lp *linkedPolicy) Targets(now float64) (float64, float64) {
	return lp.inner.Targets(now)
}

// ExportCheckpoint implements sim.Checkpointable.
func (lp *linkedPolicy) ExportCheckpoint(now float64) checkpoint.ControllerState {
	st := lp.inner.ExportCheckpoint(now)
	st.HasLink = true
	st.Link = lp.client.ExportState()
	return st
}

// RestoreCheckpoint implements sim.Checkpointable. A snapshot without link
// state (or a nil fail-safe restore) drops the lease: the rack re-enters
// degraded mode until the coordinator re-grants — the safe direction.
func (lp *linkedPolicy) RestoreCheckpoint(env *sim.Env, scn sim.Scenario, st *checkpoint.ControllerState, now float64) error {
	if err := lp.inner.RestoreCheckpoint(env, scn, st, now); err != nil {
		return err
	}
	if st != nil && st.HasLink {
		return lp.client.RestoreState(st.Link)
	}
	lp.client.FailSafe(now)
	return nil
}

// linkedRackJob is rackJob for linked runs: the same per-rack seed offsets,
// the rack-scoped half of the fault plan, and the bootstrap lease's slot as
// the initial overload phase (the link re-imposes the offset every tick, so
// this only matters for the instant before the first Tick).
func linkedRackJob(cfg Config, i int, rackPlan sim.Scenario, bootOffsetS float64) (sim.Scenario, *core.SprintCon) {
	scn := rackPlan
	scn.Interactive.Seed += int64(i)
	scn.Rack.Seed += int64(i)
	scn.Faults.Seed += int64(i)

	pcfg := cfg.SprintCon
	acfg := cfg.allocConfig()
	acfg.PhaseOffsetS = bootOffsetS
	pcfg.AllocOverride = &acfg
	return scn, core.New(pcfg)
}

// RunLinked simulates the cluster in lock-step with the control link in the
// loop: every tick the transport's fault schedule advances, due grants reach
// the rack clients, all racks execute one physics tick (concurrently unless
// Config.Serial — results are bit-identical either way, since racks only
// exchange state through the link on the coordinating goroutine), heartbeats
// travel back, and the coordinator issues fresh leases. The feeder draw is
// scored against a shadow breaker rated at the budget.
func RunLinked(cfg Config) (*LinkedResult, error) {
	if !cfg.Link.Enabled {
		return nil, fmt.Errorf("cluster: RunLinked needs Link.Enabled (use Run for static phase offsets)")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	proto, ccfg, err := cfg.linkSetup()
	if err != nil {
		return nil, err
	}
	coord, err := link.NewCoordinator(ccfg)
	if err != nil {
		return nil, err
	}
	if cfg.Link.Obs != nil {
		if len(cfg.Link.Obs.Racks) < cfg.NumRacks {
			return nil, fmt.Errorf("cluster: observability plane has %d rack planes for %d racks", len(cfg.Link.Obs.Racks), cfg.NumRacks)
		}
		// Attach before Bootstrap so the bootstrap grants are spanned and
		// their IDs reach the clients' initial leases.
		coord.Attach(cfg.Link.Obs.Coord)
	}
	rackPlan, linkPlan := cfg.Scenario.Faults.Split()
	rackScn := cfg.Scenario
	rackScn.Faults = rackPlan

	dt := cfg.Scenario.DtS
	tr := link.NewTransport(linkPlan, cfg.NumRacks, cfg.Link.Seed, dt)
	boot := coord.Bootstrap()

	runners := make([]*sim.Runner, cfg.NumRacks)
	clients := make([]*link.Client, cfg.NumRacks)
	inners := make([]*core.SprintCon, cfg.NumRacks)
	for i := range runners {
		// Runner construction is the pre-run phase (per-tick series
		// preallocation, trace generation — under a millisecond for a
		// 900 s rack, about 1 ms for a day-long one, perfbench's
		// sim.setup_ms_per_rack — which adds up to seconds over thousands
		// of racks), so honor cancellation between racks: a run stopped
		// during setup returns within one rack's build, not after all of
		// them.
		if cfg.Stop != nil {
			select {
			case <-cfg.Stop:
				return nil, sim.ErrCanceled
			default:
			}
		}
		scn, inner := linkedRackJob(cfg, i, rackScn, boot[i].PhaseOffsetS)
		inners[i] = inner
		b := boot[i]
		clients[i] = link.NewClient(proto, i, &b)
		lp := &linkedPolicy{inner: inner, client: clients[i], ratedW: scn.Breaker.RatedPower, cycleS: proto.CycleS}
		var opts sim.RunOptions
		if cfg.Link.RackOptions != nil {
			opts = cfg.Link.RackOptions(i)
		}
		if cfg.Link.Obs != nil {
			clients[i].Attach(cfg.Link.Obs.Racks[i])
			opts.Obs = cfg.Link.Obs.Racks[i]
		}
		if cfg.Resume != nil {
			opts.Resume = cfg.Resume[i]
		}
		r, err := sim.NewRunner(scn, lp, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: rack %d: %w", i, err)
		}
		runners[i] = r
	}

	steps := runners[0].StepsTotal()
	start := runners[0].StepIndex()
	if start > 0 {
		// A resumed run: the coordinator is a fresh process over restored
		// racks. Bring it up through its crash-restart path so its lease
		// bookkeeping matches reality (no beats seen yet, a full TTL of
		// conservatism for grants the racks may still hold).
		coord.Restart(float64(start) * dt)
	}
	aggregate := make([]float64, steps-start)
	workers := runtime.GOMAXPROCS(0)
	stepErrs := make([]error, cfg.NumRacks)
	coordDown := false
	canceled := false

	// Coherent row snapshots: every rack exported at the same tick
	// boundary, handed to the sink as one set.
	lastCkS := float64(start) * dt
	captureRow := func(tNext float64) error {
		snaps := make([]*checkpoint.Snapshot, len(runners))
		for i, r := range runners {
			sp, err := r.ExportSnapshot()
			if err != nil {
				return fmt.Errorf("cluster: rack %d checkpoint: %w", i, err)
			}
			snaps[i] = sp
		}
		cfg.Checkpoint.Sink(snaps)
		lastCkS = tNext
		return nil
	}

	for step := start; step < steps; step++ {
		if cfg.Stop != nil {
			select {
			case <-cfg.Stop:
				canceled = true
			default:
			}
			if canceled {
				break
			}
		}
		now := float64(step) * dt

		// 1. Network fault schedule, and the coordinator's crash/restart
		// edge: process restart (soft-state wipe) when the downtime ends.
		tr.Step(now)
		down := tr.CoordinatorDown()
		if coordDown && !down {
			coord.Restart(now)
		}
		coordDown = down

		// 2. Due grants reach the rack clients, in rack order.
		for i, c := range clients {
			for _, l := range tr.DeliverGrants(i, now) {
				c.Offer(now, l)
			}
		}

		// 3. One physics tick per rack. Racks are independent given their
		// delivered grants, so the sweep parallelizes without affecting
		// the result.
		if cfg.Serial || workers <= 1 {
			for i, r := range runners {
				if err := r.Step(); err != nil {
					return nil, fmt.Errorf("cluster: rack %d: %w", i, err)
				}
			}
		} else {
			var wg sync.WaitGroup
			sem := make(chan struct{}, workers)
			for i, r := range runners {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int, r *sim.Runner) {
					defer wg.Done()
					defer func() { <-sem }()
					defer sim.RecoverPanic(&stepErrs[i])
					stepErrs[i] = r.Step()
				}(i, r)
			}
			wg.Wait()
			for i, e := range stepErrs {
				if e != nil {
					return nil, fmt.Errorf("cluster: rack %d: %w", i, e)
				}
			}
		}

		// 4. Heartbeats out (a dead controller process sends none, and
		// neither does a dark rack — a rack in a power outage must look
		// unreachable so the coordinator's timeout path reclaims its slot),
		// then due beats into the coordinator, then fresh grants onto the
		// wire.
		for i, c := range clients {
			if runners[i].ControllerDead() || runners[i].Dark() {
				continue
			}
			if hb, ok := c.MaybeBeat(now); ok {
				tr.SendBeat(now, hb)
			}
		}
		for _, hb := range tr.DeliverBeats(now) {
			coord.Observe(hb, now)
		}
		if !down {
			for _, l := range coord.Step(now) {
				tr.SendGrant(now, l)
			}
		}

		// 5. Feeder accounting from the tick's conducted powers.
		var agg float64
		for _, r := range runners {
			agg += r.LastCBPowerW()
		}
		aggregate[step-start] = agg
		if cfg.Link.OnTick != nil {
			cfg.Link.OnTick(step, now, agg)
		}

		// 6. Cadenced coherent checkpoint at the tick boundary just
		// crossed (the exported step is step+1, the next to execute).
		if cfg.Checkpoint != nil {
			tNext := float64(step+1) * dt
			if tNext >= lastCkS+cfg.Checkpoint.EveryS-1e-9 {
				if err := captureRow(tNext); err != nil {
					return nil, err
				}
			}
		}
	}

	if canceled {
		// A drain wants the freshest possible resume point: capture the
		// boundary the run stopped at, then report the cancellation.
		if cfg.Checkpoint != nil {
			if err := captureRow(math.NaN()); err != nil {
				return nil, err
			}
		}
		return nil, sim.ErrCanceled
	}

	out := &LinkedResult{
		Result:     Result{Racks: make([]*sim.Result, cfg.NumRacks), AggregateW: aggregate},
		StartStep:  start,
		Transport:  tr.Stats(),
		Coord:      coord.Stats(),
		Clients:    make([]link.ClientStats, cfg.NumRacks),
		Invariants: make([]core.InvariantReport, cfg.NumRacks),
	}
	for i, r := range runners {
		res := r.Finish()
		out.Racks[i] = res
		out.CBTrips += res.CBTrips
		out.OutageS += res.OutageS
		out.DeadlineMisses += res.DeadlineMisses
		out.Clients[i] = clients[i].Stats()
		out.Invariants[i] = inners[i].InvariantViolations()
	}
	out.PeakW = stats.Max(aggregate)
	out.MeanW = stats.Mean(aggregate)
	out.OverBudgetFrac = stats.FracAbove(aggregate, cfg.FeederBudgetW)
	out.FeederExceedFrac = stats.FracAbove(aggregate, cfg.FeederBudgetW*(1+FeederTolerance))
	out.FeederTrips = ShadowTrips(cfg.FeederBudgetW, aggregate, dt)

	if cfg.Link.Metrics != nil {
		registerLinkMetrics(cfg, out, clients, steps, dt)
	}
	return out, nil
}

// ShadowTrips runs a shadow breaker rated at budgetW over an aggregate draw
// series sampled every dtS seconds, and returns the trip count. It is
// metric-only — while "tripped" it cools and recloses rather than cutting
// power, so one sustained violation can score several trips but never
// alters the simulation. The linked cluster scores its feeder with it, and
// the hierarchical runner reuses it for the row and building breakers.
func ShadowTrips(budgetW float64, aggregate []float64, dtS float64) int {
	bcfg := breaker.DefaultConfig()
	bcfg.RatedPower = budgetW
	fb, err := breaker.New(bcfg)
	if err != nil {
		return 0
	}
	for _, w := range aggregate {
		if fb.Tripped() {
			fb.Cool(dtS)
			if fb.CanReclose() {
				_ = fb.Reclose()
			}
			continue
		}
		fb.Step(w, dtS)
	}
	return fb.Trips()
}

// registerLinkMetrics publishes the run's link accounting on the configured
// registry.
func registerLinkMetrics(cfg Config, out *LinkedResult, clients []*link.Client, steps int, dt float64) {
	m := cfg.Link.Metrics
	m.Counter("link_grants_sent_total", "budget leases put on the wire").Add(float64(out.Transport.GrantsSent))
	m.Counter("link_grants_lost_total", "leases dropped by loss faults, partitions or coordinator downtime").
		Add(float64(out.Transport.GrantsLost + out.Transport.GrantsPartition))
	m.Counter("link_beats_sent_total", "heartbeats put on the wire").Add(float64(out.Transport.BeatsSent))
	m.Counter("link_beats_lost_total", "heartbeats dropped by loss faults, partitions or coordinator downtime").
		Add(float64(out.Transport.BeatsLost + out.Transport.BeatsPartition))
	m.Counter("link_resyncs_total", "degraded→coordinated recoveries across racks").Add(float64(out.Resyncs()))
	m.Counter("link_probes_total", "re-sync probes issued to unreachable racks").Add(float64(out.Coord.Probes))
	m.Counter("link_repacks_total", "overload slot-assignment changes").Add(float64(out.Coord.Repacks))
	m.Counter("link_presumed_degraded_total", "coordinator transitions into presumed-degraded").Add(float64(out.Coord.Presumed))
	var expiries int
	for _, c := range out.Clients {
		expiries += c.Expiries
	}
	m.Counter("link_expiries_total", "lease expiries (degraded-mode entries) across racks").Add(float64(expiries))
	m.Gauge("link_regrant_backoff_peak_seconds", "largest re-grant retry backoff reached").Set(out.Coord.PeakBackoffS)
	m.Gauge("link_degraded_seconds", "total rack-seconds spent in the degraded standalone fallback").Set(out.DegradedS())
	endS := float64(steps) * dt
	age := 0.0
	for _, c := range clients {
		if a := c.LeaseAgeS(endS); !math.IsNaN(a) && a > age {
			age = a
		}
	}
	m.Gauge("link_lease_age_seconds", "oldest live lease age at end of run").Set(age)
}
