package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"sprintcon/internal/core"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// TestMetricsDeclared checks that BENCHMARK.json declares exactly the
// metrics the command prints, with the same units.
func TestMetricsDeclared(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		code     []decl
		declared []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd, bench.EndToEnd},
		{"per_layer", perLayer, bench.PerLayer},
	} {
		if len(c.code) != len(c.declared) {
			t.Errorf("%s: the command prints %d metrics, BENCHMARK.json declares %d", c.kind, len(c.code), len(c.declared))
		}
		for _, d := range c.code {
			found := false
			for _, j := range c.declared {
				if j.Name == d.name {
					found = true
					if j.Unit != d.unit {
						t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the command", c.kind, d.name, j.Unit, d.unit)
					}
				}
			}
			if !found {
				t.Errorf("%s: %s is printed but not declared in BENCHMARK.json", c.kind, d.name)
			}
		}
	}
}

// smoke runs a workload at tiny size, untraced and traced, and requires
// its output checks to pass and every declared metric to print.
func smoke(t *testing.T, workload string, cfg config) {
	cfg.workload, cfg.seed, cfg.seconds, cfg.size = workload, 7, 0.5, tinySize
	for _, traced := range []bool{false, true} {
		cfg.trace = traced
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d problems=%v",
				traced, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
		}
		if traced && rep.Metrics["trace.unexplained_share"].Value > 0.5 {
			t.Errorf("layer self-times leave %.2f of the wall unexplained", rep.Metrics["trace.unexplained_share"].Value)
		}
	}
}

func TestSmokeRackSprint(t *testing.T) { smoke(t, "rack_sprint", config{}) }

func TestSmokeFleetDiurnal(t *testing.T) { smoke(t, "fleet_diurnal", config{}) }

func TestSmokeServiceLinked(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "sprintd")
	if out, err := exec.Command("go", "build", "-o", bin, "sprintcon/cmd/sprintd").CombinedOutput(); err != nil {
		t.Fatalf("build sprintd: %v\n%s", err, out)
	}
	smoke(t, "service_linked", config{sprintd: bin, workdir: dir})
}

// TestTimingWrapperTransparent checks that the timing wrapper leaves a
// rack's result bit-identical, on the event engine (where it must keep
// the fast-forward contracts) and on the tick engine with a registry.
func TestTimingWrapperTransparent(t *testing.T) {
	cfg := config{seed: 3, size: tinySize}
	scn, err := fleetScenario(cfg, 0, cfg.size.fleetDurS)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []sim.RunOptions{
		{Engine: "event"},
		{Engine: "tick", Metrics: telemetry.NewRegistry()},
	} {
		plain, err := sim.RunWith(scn, core.New(noSprint()), sim.RunOptions{Engine: opts.Engine})
		if err != nil {
			t.Fatal(err)
		}
		traced, tr, err := traceRack(scn, core.New(noSprint()), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalResults(plain, traced); err != nil {
			t.Errorf("%s engine: %v", opts.Engine, err)
		}
		if plain.Engine != traced.Engine {
			t.Errorf("%s engine: engine stats %+v untraced, %+v traced", opts.Engine, plain.Engine, traced.Engine)
		}
		if tr.ticks == 0 || tr.tickNs <= 0 {
			t.Errorf("%s engine: the wrapper timed no ticks", opts.Engine)
		}
		if opts.Engine == "event" && traced.Engine.Spans == 0 {
			t.Errorf("event engine took no spans; the check is vacuous")
		}
	}
}

// TestTail pins the tail rule: the highest percentile with at least ten
// samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, p, n := tail(xs); v != 90 || p != 0.90 || n != 100 {
		t.Errorf("100 samples: got %v at p%v of %d, want 90 at p90", v, p, n)
	}
	if v, p, _ := tail(xs[:5]); v != 100 || p != 1 {
		t.Errorf("5 samples: got %v at p%v, want the maximum", v, p)
	}
}

// TestSliceRate checks that work spread over operation spans is counted
// once, and that a stalled slice does not move the median.
func TestSliceRate(t *testing.T) {
	ops := []span{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 10}}
	if r := sliceRate(ops, 6, 10); r != 6 {
		t.Errorf("got %v rack-s/s, want the median slice's 6", r)
	}
}
