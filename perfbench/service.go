package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sprintcon/internal/core"
	"sprintcon/internal/hier"
	"sprintcon/internal/sim"
)

// runSpec is the subset of sprintd's RunSpec the benchmark submits.
type runSpec struct {
	Rows        int     `json:"rows"`
	RacksPerRow int     `json:"racks_per_row"`
	DurationS   float64 `json:"duration_s"`
	Seed        int64   `json:"seed"`
	LinkSeed    int64   `json:"link_seed"`
}

// serviceSpec is the seed's k-th distinct spec.
func serviceSpec(cfg config, k int) runSpec {
	s := cfg.seed*seedStride + int64(k)
	return runSpec{Rows: cfg.size.serviceRows, RacksPerRow: cfg.size.serviceRacks, DurationS: cfg.size.serviceDurS, Seed: s, LinkSeed: s}
}

// specConfig resolves a spec into the hier.Config sprintd runs for it
// (without the service plumbing): the paper's default scenario with the
// spec's seeds and duration, uniform rows, default SprintCon.
func specConfig(spec runSpec) hier.Config {
	c := hier.Config{
		Scenario:  sim.DefaultScenario(),
		SprintCon: hier.DefaultConfig().SprintCon,
		Seed:      spec.LinkSeed,
	}
	c.Scenario.DurationS = spec.DurationS
	c.Scenario.Interactive.Seed += spec.Seed
	c.Scenario.Rack.Seed += spec.Seed
	c.Scenario.Faults.Seed += spec.Seed
	for i := 0; i < spec.Rows; i++ {
		c.Rows = append(c.Rows, hier.RowConfig{Racks: spec.RacksPerRow})
	}
	return c
}

// buildingResult is the part of a run record's result the replay check
// compares.
type buildingResult struct {
	PeakW          float64     `json:"building_peak_w"`
	MeanW          float64     `json:"building_mean_w"`
	ExceedFrac     float64     `json:"building_exceed_frac"`
	Trips          int         `json:"building_trips"`
	DegradedS      float64     `json:"degraded_seconds"`
	CBTrips        int         `json:"cb_trips"`
	DeadlineMisses int         `json:"deadline_misses"`
	Rows           []rowResult `json:"rows"`
}

type rowResult struct {
	PeakW float64 `json:"peak_aggregate_w"`
	MeanW float64 `json:"mean_aggregate_w"`
}

func resultOf(res *hier.Result) buildingResult {
	b := buildingResult{
		PeakW: res.BuildingPeakW, MeanW: res.BuildingMeanW, ExceedFrac: res.BuildingExceedFrac,
		Trips: res.BuildingTrips, DegradedS: res.DegradedS(), CBTrips: res.CBTrips, DeadlineMisses: res.DeadlineMisses,
	}
	for _, row := range res.Rows {
		b.Rows = append(b.Rows, rowResult{PeakW: row.PeakW, MeanW: row.MeanW})
	}
	return b
}

// runRecord is the part of GET /api/v1/runs/{id} the benchmark reads.
type runRecord struct {
	State       string          `json:"state"`
	Error       string          `json:"error"`
	Submitted   time.Time       `json:"submitted"`
	Started     time.Time       `json:"started"`
	Finished    time.Time       `json:"finished"`
	WallSeconds float64         `json:"wall_seconds"`
	Result      *buildingResult `json:"result"`
}

// runObs is one client operation: a submitted run, its followed decision
// stream and its record.
type runObs struct {
	spec          int
	id            string
	status        int // POST status
	start, posted time.Time
	first         time.Time // first stream line received
	end           time.Time // stream end received
	lines         int
	rec           runRecord
	journalBytes  int64
	err           error
}

// sprintd is a running sprintd process.
type sprintd struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	stateDir string
	logDone  chan struct{}
}

var listenRE = regexp.MustCompile(`listening on http://(\S+)`)

// startSprintd starts sprintd on a free loopback port with a fresh state
// directory and returns once /healthz answers, with the elapsed seconds.
func startSprintd(cfg config, stateDir string) (*sprintd, float64, error) {
	if cfg.sprintd == "" {
		return nil, 0, errors.New("service_linked needs -sprintd")
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(cfg.sprintd, "-addr", "127.0.0.1:0", "-state-dir", stateDir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sprintd: %w", err)
	}
	s := &sprintd{cmd: cmd, stateDir: stateDir, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
				continue
			}
			fmt.Fprintln(os.Stderr, "sprintd:", sc.Text())
		}
		// Keep draining past an over-long line so sprintd never blocks
		// writing its log.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logDone:
		s.stop()
		return nil, 0, errors.New("sprintd exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, errors.New("sprintd did not listen within 30 s")
	}
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, since(t0), nil
			}
		}
		if since(t0) > 30 {
			s.stop()
			return nil, 0, errors.New("sprintd /healthz did not answer within 30 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains sprintd with SIGTERM (SIGKILL after 20 s), waits for it and
// its log reader, and returns its peak resident set size in MB.
func (s *sprintd) stop() float64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-s.logDone
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

var client = &http.Client{Timeout: 120 * time.Second}

// submit runs one operation: POST the spec, follow row 0 rack 0's decision
// stream to its end, then read the run record.
func (s *sprintd) submit(cfg config, k int) *runObs {
	o := &runObs{spec: k, start: time.Now()}
	body, _ := json.Marshal(serviceSpec(cfg, k)) // a plain struct always marshals
	resp, err := client.Post(s.base+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	var acc struct{ ID string }
	o.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	o.posted = time.Now()
	if o.status != http.StatusAccepted || err != nil {
		o.err = fmt.Errorf("submit: status %d (%v)", o.status, err)
		return o
	}
	o.id = acc.ID

	resp, err = client.Get(s.base + "/api/v1/runs/" + o.id + "/decisions?row=0&rack=0")
	if err != nil {
		o.err = err
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		now := time.Now()
		if o.lines == 0 {
			o.first = now
		}
		o.lines++
	}
	err = sc.Err()
	resp.Body.Close()
	o.end = time.Now()
	if err != nil {
		o.err = fmt.Errorf("decision stream: %w", err)
		return o
	}

	resp, err = client.Get(s.base + "/api/v1/runs/" + o.id)
	if err != nil {
		o.err = err
		return o
	}
	err = json.NewDecoder(resp.Body).Decode(&o.rec)
	resp.Body.Close()
	if err != nil {
		o.err = fmt.Errorf("run record: %w", err)
		return o
	}
	o.journalBytes = dirBytes(filepath.Join(s.stateDir, "runs", o.id))
	return o
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// serviceLoop runs GOMAXPROCS clients in a closed loop, each submitting
// its next run when the previous one's stream and record are read, until d
// seconds have elapsed or max runs have started (max 0: no limit). Specs
// cycle through the seed's distinct set.
func serviceLoop(s *sprintd, cfg config, d float64, max int) ([]*runObs, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var obs []*runObs
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for since(start) < d {
				i := int(next.Add(1) - 1)
				if max > 0 && i >= max {
					return
				}
				o := s.submit(cfg, i%cfg.size.serviceSpecs)
				mu.Lock()
				obs = append(obs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return obs, since(start)
}

// serviceRun is the untraced part of service_linked.
type serviceRun struct {
	obs     []*runObs
	start   time.Time // start of the measured window
	elapsed float64
	setup   float64
	rssMB   float64
	replays []*hier.Result // in-process replay per spec
	out     outcomes
}

// measureService replays the seed's specs in-process, times sprintd's
// start, measures a fresh sprintd's memory over a fixed number of runs,
// then runs the closed loop for d seconds on another fresh sprintd and
// checks every run.
func measureService(cfg config, rep *report, d float64) (*serviceRun, error) {
	root := filepath.Join(cfg.workdir, fmt.Sprintf("sprintd-%d", os.Getpid()))
	defer os.RemoveAll(root)
	sr := &serviceRun{}

	// Replay every spec in-process: the run records must match, and the
	// replays give the simulated outcomes.
	for k := 0; k < cfg.size.serviceSpecs; k++ {
		res, err := hier.RunLinked(specConfig(serviceSpec(cfg, k)))
		if err != nil {
			return nil, err
		}
		sr.replays = append(sr.replays, res)
		for _, row := range res.Rows {
			for _, r := range row.Racks {
				sr.out.add(summarize(r))
			}
		}
	}

	// Set-up: sprintd start until /healthz answers, several times.
	var setups []float64
	start := func(name string) (*sprintd, error) {
		s, dt, err := startSprintd(cfg, filepath.Join(root, name))
		setups = append(setups, dt)
		return s, err
	}
	for r := 0; r < cfg.size.setupReps; r++ {
		s, err := start(fmt.Sprint(r))
		if err != nil {
			return nil, err
		}
		s.stop()
	}

	// Memory: a fresh sprintd's peak RSS over a fixed number of runs, so
	// the figure does not depend on how many runs the timed window fits.
	s, err := start("memory")
	if err != nil {
		return nil, err
	}
	mem, _ := serviceLoop(s, cfg, math.Inf(1), cfg.size.serviceMemRuns)
	sr.rssMB = s.stop()
	for _, p := range serviceCheck(cfg, sr, mem) {
		rep.fail("memory phase: %s", p)
	}

	if s, err = start("timed"); err != nil {
		return nil, err
	}
	sr.setup = median(setups)
	serviceLoop(s, cfg, cfg.size.warmS, 0)
	sr.start = time.Now()
	sr.obs, sr.elapsed = serviceLoop(s, cfg, d, 0)
	s.stop()

	rep.Attempted = len(sr.obs)
	for _, p := range serviceCheck(cfg, sr, sr.obs) {
		rep.Failed++
		rep.fail("%s", p)
	}
	return sr, nil
}

// serviceCheck returns one problem per failed run: an error or 429, a run
// that did not reach done, a followed stream without one line per control
// period, a record that differs from the in-process replay, or a trip.
func serviceCheck(cfg config, sr *serviceRun, obs []*runObs) []string {
	wantLines := int(cfg.size.serviceDurS / core.DefaultConfig().ControlPeriodS)
	var problems []string
	for _, o := range obs {
		bad := ""
		switch {
		case o.err != nil:
			bad = o.err.Error()
		case o.rec.State != "done":
			bad = fmt.Sprintf("state %s (%s)", o.rec.State, o.rec.Error)
		case o.lines != wantLines:
			bad = fmt.Sprintf("decision stream has %d lines, want %d", o.lines, wantLines)
		case o.rec.Result == nil || !reflect.DeepEqual(*o.rec.Result, resultOf(sr.replays[o.spec])):
			bad = "run record differs from the in-process replay"
		case o.rec.Result.CBTrips != 0:
			bad = fmt.Sprintf("%d breaker trips", o.rec.Result.CBTrips)
		}
		if bad != "" {
			problems = append(problems, fmt.Sprintf("run %s (spec %d): %s", o.id, o.spec, bad))
		}
	}
	return problems
}

// spans returns the measured runs' turnarounds as spans of the window:
// POST sent to the end of the followed stream.
func (sr *serviceRun) spans() []span {
	ops := make([]span, len(sr.obs))
	for i, o := range sr.obs {
		ops[i] = span{o.start.Sub(sr.start).Seconds(), o.end.Sub(sr.start).Seconds()}
	}
	return ops
}

func (sr *serviceRun) rate(cfg config) float64 {
	racks := float64(cfg.size.serviceRows * cfg.size.serviceRacks)
	return sliceRate(sr.spans(), racks*cfg.size.serviceDurS, sr.elapsed)
}

func runService(cfg config) (*report, error) {
	rep := newReport()
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	sr, err := measureService(cfg, rep, d)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.set("rack_s_per_wall_s", sr.rate(cfg))
		rep.set("setup_s", sr.setup)
		setTurnaround(rep, sr.spans())
		rep.set("peak_rss_mb", sr.rssMB)
		rep.set("avg_freq_inter", sr.out.freqInter())
		sr.out.log(rep)
		return rep, nil
	}
	return rep, traceService(cfg, rep, sr)
}
