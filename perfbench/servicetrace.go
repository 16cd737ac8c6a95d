package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/core"
	"sprintcon/internal/hier"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// sprintdCheckpointEveryS is sprintd's default -checkpoint-every.
const sprintdCheckpointEveryS = 300

// lineLog stands in for sprintd's per-rack decision stream buffer: it keeps
// a copy of every line and counts the bytes. One rack's sink is written by
// one rack step at a time.
type lineLog struct {
	lines [][]byte
	bytes int64
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.lines = append(l.lines, append([]byte(nil), p...))
	l.bytes += int64(len(p))
	return len(p), nil
}

// replay is one in-process run of a spec through hier.RunLinked with
// sprintd's plumbing: a run registry, one obs cluster per row bound to it,
// a decision sink per rack, a progress callback per row tick, and row
// checkpoints encoded and written atomically at sprintd's cadence. A
// traced replay also gives each rack a telemetry registry (the engine's
// tick and MPC solve histograms) and times every row tick and checkpoint
// write.
type replay struct {
	res     *hier.Result
	wallNs  int64
	mallocs uint64

	obs      []*obs.Cluster
	logs     [][]*lineLog
	regs     [][]*telemetry.Registry
	rowTicks [][]float64 // per row: seconds between consecutive row ticks
	sinkNs   []int64     // per row: time inside OnRowCheckpoint
	captures []int       // per row
	ckptB    []int64     // per row: encoded snapshot bytes
	snaps    []int       // per row: rack snapshots written
}

func runReplay(c hier.Config, dir string, traced bool) (*replay, error) {
	rows := len(c.Rows)
	rp := &replay{
		rowTicks: make([][]float64, rows), sinkNs: make([]int64, rows),
		captures: make([]int, rows), ckptB: make([]int64, rows), snaps: make([]int, rows),
	}
	reg := telemetry.NewRegistry()
	c.Metrics = reg
	for row, rc := range c.Rows {
		cl := obs.NewCluster(rc.Racks, obs.DefaultDetectorConfig())
		for _, p := range cl.Racks {
			p.Bind(reg, fmt.Sprintf("obs_row%d_rack%d_", row, p.Rack()))
		}
		rp.obs = append(rp.obs, cl)
		logs := make([]*lineLog, rc.Racks)
		regs := make([]*telemetry.Registry, rc.Racks)
		for j := range logs {
			logs[j] = &lineLog{}
			if traced {
				regs[j] = telemetry.NewRegistry()
			}
		}
		rp.logs = append(rp.logs, logs)
		rp.regs = append(rp.regs, regs)
	}
	c.Obs = rp.obs
	c.RackOptions = func(row, rack int) sim.RunOptions {
		return sim.RunOptions{Decisions: telemetry.NewDecisionSink(rp.logs[row][rack]), Metrics: rp.regs[row][rack]}
	}
	var mu sync.Mutex
	progress := make([]int, rows)
	last := make([]time.Time, rows)
	c.OnRowTick = func(row, step int, _, _ float64) {
		if traced {
			now := time.Now()
			if !last[row].IsZero() {
				rp.rowTicks[row] = append(rp.rowTicks[row], now.Sub(last[row]).Seconds())
			}
			last[row] = now
		}
		mu.Lock()
		progress[row] = step + 1
		mu.Unlock()
	}
	c.CheckpointEveryS = sprintdCheckpointEveryS
	var sinkErr error
	c.OnRowCheckpoint = func(row int, snaps []*checkpoint.Snapshot) {
		t0 := time.Now()
		n, err := saveRowCheckpoint(filepath.Join(dir, fmt.Sprintf("row%d.ckpt", row)), snaps)
		rp.sinkNs[row] += int64(time.Since(t0))
		rp.captures[row]++
		rp.ckptB[row] += n
		rp.snaps[row] += len(snaps)
		if err != nil {
			mu.Lock()
			sinkErr = err
			mu.Unlock()
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := hier.RunLinked(c)
	rp.wallNs = int64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = sinkErr
	}
	if err != nil {
		return nil, err
	}
	rp.res, rp.mallocs = res, m1.Mallocs-m0.Mallocs
	return rp, nil
}

// saveRowCheckpoint writes one row's snapshot set the way sprintd's journal
// does: magic, rack count, one length-prefixed checkpoint.Encode blob per
// rack, written to a temporary file and renamed into place. It returns the
// encoded snapshot bytes.
func saveRowCheckpoint(path string, snaps []*checkpoint.Snapshot) (int64, error) {
	buf := []byte("SPRDROW1")
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(snaps)))
	var n int64
	for _, sp := range snaps {
		b, err := checkpoint.Encode(sp)
		if err != nil {
			return n, err
		}
		n += int64(len(b))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return n, err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return n, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return n, err
	}
	return n, os.Rename(tmp.Name(), path)
}

// rackResults lists a replay's rack results row-major.
func (rp *replay) rackResults() []*sim.Result {
	var out []*sim.Result
	for _, row := range rp.res.Rows {
		out = append(out, row.Racks...)
	}
	return out
}

// sameAs reports whether two replays produced the same building result and
// rack summaries.
func (rp *replay) sameAs(o *hier.Result) bool {
	if !reflect.DeepEqual(resultOf(rp.res), resultOf(o)) {
		return false
	}
	for i, row := range rp.res.Rows {
		for j, r := range row.Racks {
			if summarize(r) != summarize(o.Rows[i].Racks[j]) {
				return false
			}
		}
	}
	return true
}

// traceService prints the service's per-layer metrics: sprintd phases from
// the measured runs' client-side timings and records, and the stepping
// phase from in-process replays of spec 0.
func traceService(cfg config, rep *report, sr *serviceRun) error {
	var submit, queue, runS, first, lag, journal []float64
	rejected := 0
	for _, o := range sr.obs {
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
		if o.err != nil || o.rec.State != "done" {
			continue
		}
		submit = append(submit, o.posted.Sub(o.start).Seconds()*1e3)
		queue = append(queue, o.rec.Started.Sub(o.rec.Submitted).Seconds())
		runS = append(runS, o.rec.WallSeconds)
		first = append(first, o.first.Sub(o.start).Seconds()*1e3)
		lag = append(lag, o.end.Sub(o.rec.Finished).Seconds()*1e3)
		journal = append(journal, float64(o.journalBytes))
	}
	rep.set("sprintd.submit_ms", median(submit))
	rep.set("sprintd.queue_wait_s", median(queue))
	rep.set("sprintd.run_s", median(runS))
	rep.set("sprintd.first_decision_ms", median(first))
	rep.set("sprintd.stream_lag_ms", median(lag))
	rep.set("sprintd.rejected", float64(rejected))
	rep.set("sprintd.journal_bytes_per_run", median(journal))

	spec := serviceSpec(cfg, 0)
	base := specConfig(spec)
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("replay-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	// Three interleaved rounds of the plumbed, traced and traced serial
	// replays; walls are medians, the layer totals come from the last round.
	var plainW, parW, serW []float64
	var par, ser *replay
	for i := 0; i < 3; i++ {
		plain, err := runReplay(base, dir, false)
		if err != nil {
			return err
		}
		if par, err = runReplay(base, dir, true); err != nil {
			return err
		}
		serialCfg := base
		serialCfg.Serial = true
		if ser, err = runReplay(serialCfg, dir, true); err != nil {
			return err
		}
		for name, rp := range map[string]*replay{"plumbed": plain, "traced": par, "traced serial": ser} {
			if !rp.sameAs(sr.replays[0]) {
				rep.Failed++
				rep.fail("%s replay of spec 0 differs from the plain replay", name)
			}
		}
		plainW = append(plainW, float64(plain.wallNs))
		parW = append(parW, float64(par.wallNs))
		serW = append(serW, float64(ser.wallNs))
	}

	// Link fan-out cost: the same racks linked versus unlinked (static
	// offsets on the worker pool), three interleaved pairs.
	var linked, static []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := hier.RunLinked(base); err != nil {
			return err
		}
		linked = append(linked, since(t0))
		t0 = time.Now()
		if _, err := hier.RunSweep(base); err != nil {
			return err
		}
		static = append(static, since(t0))
	}

	racks := spec.Rows * spec.RacksPerRow
	ticksPerRack := int(math.Round(spec.DurationS / base.Scenario.DtS))
	rackTicks := racks * ticksPerRack

	// Per-layer totals of the serial traced replay.
	var l layers
	var stepNs float64
	for _, r := range ser.rackResults() {
		l.add(r, rackTrace{})
		if p, ok := r.Telemetry.Get("engine_tick_seconds"); ok {
			stepNs += p.Value * 1e9
		}
	}
	l.ticks = l.stepped // one controller call per stepped tick
	mpcNs := l.mpc.sum * 1e9
	var sinkNs, tickNs float64
	var captures, snaps int
	var ckptB int64
	for row := range ser.rowTicks {
		sinkNs += float64(ser.sinkNs[row])
		captures += ser.captures[row]
		snaps += ser.snaps[row]
		ckptB += ser.ckptB[row]
		for _, dt := range ser.rowTicks[row] {
			tickNs += dt * 1e9
		}
	}

	var setupNs int64
	for g := 0; g < racks; g++ {
		scn := base.Scenario
		scn.Interactive.Seed += int64(g)
		scn.Rack.Seed += int64(g)
		t0 := time.Now()
		if _, err := sim.NewRunner(scn, core.New(base.SprintCon), sim.RunOptions{}); err != nil {
			return err
		}
		setupNs += int64(time.Since(t0))
	}

	var rowTicks []float64
	for _, row := range par.rowTicks {
		rowTicks = append(rowTicks, row...)
	}
	sort.Float64s(rowTicks)
	tickTail, _, _ := tail(rowTicks)

	var alerts, spans int
	var decisionB int64
	for i, cl := range par.obs {
		for _, a := range cl.Alerts() {
			info("obs alert on the clean replay: row %d rack %d %s at %.0f s: %s", i, a.Rack, a.Detector, a.AtS, a.Detail)
		}
		alerts += len(cl.Alerts())
		spans += len(cl.Spans())
		for _, lg := range par.logs[i] {
			decisionB += lg.bytes
		}
	}
	var grants, beats int
	for _, row := range par.res.Rows {
		grants += row.Transport.GrantsSent
		beats += row.Transport.BeatsSent
	}
	simS := float64(racks) * spec.DurationS

	rep.set("sim.setup_ms_per_rack", float64(setupNs)/1e6/float64(racks))
	rep.set("sim.plant_us_per_tick", (stepNs-mpcNs)/1e3/float64(rackTicks))
	rep.set("sim.ticks_stepped", float64(l.stepped)/float64(racks))
	rep.set("sim.allocs_per_tick", float64(ser.mallocs)/float64(rackTicks))
	zero(rep, "sim.pool_speedup", "core.tick_us", "core.self_us_per_tick")
	setControl(rep, &l, l.ticks, racks, ser.wallNs)
	l.setEngine(rep)
	rep.set("engine.overhead_share", 0)
	rep.set("hier.row_tick_us", median(rowTicks)*1e6)
	rep.set("hier.row_tick_tail_us", tickTail*1e6)
	rep.set("hier.row_speedup", median(serW)/median(parW))
	rep.set("cluster.link_overhead", median(linked)/median(static))
	rep.set("link.grants_sent", float64(grants))
	rep.set("link.beats_sent", float64(beats))
	rep.set("link.degraded_s", par.res.DegradedS())
	rep.set("checkpoint.captures", float64(captures))
	rep.set("checkpoint.bytes_per_rack", float64(ckptB)/math.Max(1, float64(snaps)))
	rep.set("checkpoint.sink_ms", sinkNs/1e6/math.Max(1, float64(captures)))
	rep.set("obs.alerts", float64(alerts))
	rep.set("obs.spans_per_rack", float64(spans)/float64(racks))
	rep.set("telemetry.decision_bytes_per_rack", float64(decisionB)/float64(racks))
	sr.out.set(rep)
	rep.set("trace.overhead", median(plainW)/median(parW))
	info("replay walls (median of 3): plumbed %.3f s, traced %.3f s, traced serial %.3f s (%.0f rack-s each)",
		median(plainW)/1e9, median(parW)/1e9, median(serW)/1e9, simS)

	// Layer self-times of the serial traced replay. Row setup, the first
	// tick of each row and the building aggregation fall between row ticks
	// and stay in the remainder.
	l.setSelfTimes(rep, float64(ser.wallNs), 0, []selfTime{
		{"sim.step", stepNs - mpcNs},
		{"control.mpc", mpcNs},
		{"checkpoint.sink", sinkNs},
		{"cluster.lockstep", tickNs - stepNs - sinkNs},
	})
	return nil
}
