package hier

import (
	"testing"

	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
)

// A fault-free linked building must raise no alert. This seed raised a
// sensor-anomaly on row 0, rack 1 at t = 1 s (model gap 737 W, ceiling
// 600 W) because the detector compared each power reading, which
// describes the previous tick, with the model estimate for the current
// one: the t = 0 reading predates the run's interactive load, and at
// t = 1 s the interactive demand and the first control move had both
// stepped since the reading was taken.
func TestRunLinkedCleanRunRaisesNoAlert(t *testing.T) {
	const seed = 1000003
	c := Config{
		Scenario:  sim.DefaultScenario(),
		SprintCon: DefaultConfig().SprintCon,
		Seed:      seed,
		Rows:      []RowConfig{{Racks: 3}, {Racks: 3}},
	}
	c.Scenario.DurationS = 900
	c.Scenario.Interactive.Seed += seed
	c.Scenario.Rack.Seed += seed
	c.Scenario.Faults.Seed += seed
	for _, rc := range c.Rows {
		c.Obs = append(c.Obs, obs.NewCluster(rc.Racks, obs.DefaultDetectorConfig()))
	}
	if _, err := RunLinked(c); err != nil {
		t.Fatal(err)
	}
	for row, cl := range c.Obs {
		for _, a := range cl.Alerts() {
			t.Errorf("row %d: false %s alert on rack %d at t=%g s: %s", row, a.Detector, a.Rack, a.AtS, a.Detail)
		}
	}
}
