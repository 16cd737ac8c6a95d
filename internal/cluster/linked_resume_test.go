package cluster

import (
	"errors"
	"sync"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/sim"
)

// captureSink collects every coherent snapshot set the lock-step driver
// emits (safe for the concurrent per-row use hier makes of it).
type captureSink struct {
	mu   sync.Mutex
	sets [][]*checkpoint.Snapshot
}

func (c *captureSink) sink(snaps []*checkpoint.Snapshot) {
	c.mu.Lock()
	c.sets = append(c.sets, snaps)
	c.mu.Unlock()
}

func (c *captureSink) all() [][]*checkpoint.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]*checkpoint.Snapshot(nil), c.sets...)
}

// TestLinkedCheckpointCaptureCoherent: the driver captures every rack at
// the same lock-step boundary, on the configured cadence, even while
// injected controller crashes would make per-rack checkpoint runtimes
// skip.
func TestLinkedCheckpointCaptureCoherent(t *testing.T) {
	cfg := linkedConfig()
	cfg.Scenario.DurationS = 600
	cap := &captureSink{}
	cfg.Checkpoint = &LinkedCheckpoint{EveryS: 120, Sink: cap.sink}
	if _, err := RunLinked(cfg); err != nil {
		t.Fatal(err)
	}
	sets := cap.all()
	if len(sets) != 5 { // 120, 240, 360, 480, 600
		t.Fatalf("captured %d sets, want 5", len(sets))
	}
	for i, set := range sets {
		if len(set) != cfg.NumRacks {
			t.Fatalf("set %d has %d racks, want %d", i, len(set), cfg.NumRacks)
		}
		for j, sp := range set {
			if sp.Step != set[0].Step {
				t.Fatalf("set %d rack %d at step %d, rack 0 at %d: incoherent capture", i, j, sp.Step, set[0].Step)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("set %d rack %d: %v", i, j, err)
			}
		}
		if want := int64(120 * (i + 1)); set[0].Step != want {
			t.Errorf("set %d at step %d, want %d", i, set[0].Step, want)
		}
	}
}

// TestLinkedResumeFromCheckpoint: a run resumed from a mid-run snapshot
// set starts at the snapshot step, covers exactly the remaining window,
// stays safe, and is deterministic (two resumes from the same snapshots
// are bit-identical).
func TestLinkedResumeFromCheckpoint(t *testing.T) {
	cfg := linkedConfig()
	cfg.Scenario.DurationS = 600
	cap := &captureSink{}
	cfg.Checkpoint = &LinkedCheckpoint{EveryS: 120, Sink: cap.sink}
	full, err := RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := cap.all()[1] // step 240

	rcfg := cfg
	rcfg.Checkpoint = nil
	rcfg.Resume = mid
	res, err := RunLinked(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartStep != int(mid[0].Step) {
		t.Fatalf("StartStep = %d, want %d", res.StartStep, mid[0].Step)
	}
	steps := int(cfg.Scenario.DurationS / cfg.Scenario.DtS)
	if len(res.AggregateW) != steps-res.StartStep {
		t.Fatalf("aggregate covers %d steps, want %d", len(res.AggregateW), steps-res.StartStep)
	}
	if res.CBTrips != 0 || res.OutageS != 0 || res.FeederTrips != 0 {
		t.Fatalf("resumed run tripped: cb=%d outage=%g feeder=%d", res.CBTrips, res.OutageS, res.FeederTrips)
	}
	if full.StartStep != 0 {
		t.Fatalf("fresh run StartStep = %d, want 0", full.StartStep)
	}

	res2, err := RunLinked(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.AggregateW {
		if res.AggregateW[i] != res2.AggregateW[i] {
			t.Fatalf("resume not deterministic at step %d: %g vs %g", res.StartStep+i, res.AggregateW[i], res2.AggregateW[i])
		}
	}
	for i := range res.Racks {
		if res.Racks[i].EnergyTotalWh != res2.Racks[i].EnergyTotalWh {
			t.Fatalf("rack %d energy differs between identical resumes", i)
		}
	}
}

// TestLinkedResumeValidation: malformed resume sets and checkpoint
// configurations are rejected before any simulation work.
func TestLinkedResumeValidation(t *testing.T) {
	base := linkedConfig()
	base.Scenario.DurationS = 300
	cap := &captureSink{}
	base.Checkpoint = &LinkedCheckpoint{EveryS: 100, Sink: cap.sink}
	if _, err := RunLinked(base); err != nil {
		t.Fatal(err)
	}
	good := cap.all()[0]

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"resume with wrong rack count", func(c *Config) { c.Resume = good[:len(good)-1] }},
		{"resume with nil snapshot", func(c *Config) {
			bad := append([]*checkpoint.Snapshot(nil), good...)
			bad[1] = nil
			c.Resume = bad
		}},
		{"resume with incoherent steps", func(c *Config) {
			bad := append([]*checkpoint.Snapshot(nil), good...)
			cp := *bad[0]
			cp.Step++
			bad[0] = &cp
			c.Resume = bad
		}},
		{"resume without link", func(c *Config) {
			c.Link.Enabled = false
			c.Resume = good
		}},
		{"checkpoint without sink", func(c *Config) { c.Checkpoint = &LinkedCheckpoint{EveryS: 100} }},
		{"checkpoint cadence under dt", func(c *Config) {
			c.Checkpoint = &LinkedCheckpoint{EveryS: 0.1, Sink: cap.sink}
		}},
		{"checkpoint without link", func(c *Config) {
			c.Link.Enabled = false
			c.Checkpoint = &LinkedCheckpoint{EveryS: 100, Sink: cap.sink}
		}},
	}
	for _, tc := range cases {
		cfg := linkedConfig()
		cfg.Scenario.DurationS = 300
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if cfg.Link.Enabled { // RunLinked must reject it too
			if _, err := RunLinked(cfg); err == nil {
				t.Errorf("%s: RunLinked accepted it", tc.name)
			}
		}
	}
}

// TestLinkedCancelDuringSetup: a stop that closes before or during the
// runner-construction phase (per-tick series preallocation: under a
// millisecond per 900 s rack, about 1 ms per day-long one) aborts RunLinked
// promptly with sim.ErrCanceled instead of building every remaining rack
// first.
func TestLinkedCancelDuringSetup(t *testing.T) {
	cfg := linkedConfig()
	stop := make(chan struct{})
	close(stop)
	cfg.Stop = stop
	if _, err := RunLinked(cfg); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("pre-closed stop: err = %v, want sim.ErrCanceled", err)
	}
}

// TestLinkedCancelCheckpointsAndResumes: closing Stop abandons the run
// within one tick with sim.ErrCanceled, a final coherent capture lands at
// the cancellation boundary, and the run completes correctly when resumed
// from it.
func TestLinkedCancelCheckpointsAndResumes(t *testing.T) {
	cfg := linkedConfig()
	cfg.Scenario.DurationS = 600
	stop := make(chan struct{})
	cfg.Stop = stop
	cap := &captureSink{}
	cfg.Checkpoint = &LinkedCheckpoint{EveryS: 1e6, Sink: cap.sink} // cadence beyond the run: only the cancel capture fires
	var once sync.Once
	cfg.Link.OnTick = func(step int, _, _ float64) {
		if step >= 99 {
			once.Do(func() { close(stop) })
		}
	}
	_, err := RunLinked(cfg)
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	sets := cap.all()
	if len(sets) != 1 {
		t.Fatalf("captured %d sets on cancel, want exactly the final capture", len(sets))
	}
	set := sets[0]
	if set[0].Step != 100 {
		t.Fatalf("cancel capture at step %d, want 100 (one tick after the stop)", set[0].Step)
	}

	rcfg := cfg
	rcfg.Stop = nil
	rcfg.Checkpoint = nil
	rcfg.Link.OnTick = nil
	rcfg.Resume = set
	res, err := RunLinked(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartStep != 100 {
		t.Fatalf("resumed StartStep = %d, want 100", res.StartStep)
	}
	steps := int(cfg.Scenario.DurationS / cfg.Scenario.DtS)
	if len(res.AggregateW) != steps-100 {
		t.Fatalf("resumed aggregate covers %d steps, want %d", len(res.AggregateW), steps-100)
	}
}
