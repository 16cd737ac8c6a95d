package experiments

import (
	"strconv"
	"testing"

	"sprintcon/internal/cluster"
	"sprintcon/internal/obs"
)

// TestAlertCoverageClaims pins the observability acceptance claims: every
// E18 fault class and E19 network condition fires its expected detector
// within the latency budget, and the fault-free rows raise zero alerts.
func TestAlertCoverageClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full E18+E19 matrices")
	}
	tbl, err := AlertCoverage()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(FaultRows()) + len(PartitionRows())
	if len(tbl.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), wantRows)
	}
	const (
		colCase   = 0
		colExpect = 1
		colOK     = 5
		colAlerts = 6
	)
	for _, row := range tbl.Rows {
		if row[colOK] != "true" {
			t.Errorf("case %s (expect %s) failed its coverage row: %v", row[colCase], row[colExpect], row)
		}
		if row[colExpect] == "none" {
			n, err := strconv.Atoi(row[colAlerts])
			if err != nil {
				t.Fatalf("case %s alert count %q: %v", row[colCase], row[colAlerts], err)
			}
			if n != 0 {
				t.Errorf("fault-free case %s raised %d alerts — false positives", row[colCase], n)
			}
		}
	}
}

// TestExpectedDetectorMapping pins the fault-class → detector table so a
// renamed fault row cannot silently fall out of coverage.
func TestExpectedDetectorMapping(t *testing.T) {
	for _, r := range FaultRows() {
		if r.Label == "none" {
			if expectedDetector(r.Label) != "" {
				t.Fatal("fault-free row must expect no detector")
			}
			continue
		}
		if expectedDetector(r.Label) == "" {
			t.Errorf("fault row %q maps to no detector — uncovered fault class", r.Label)
		}
	}
}

// Network faults leave every power monitor healthy, so the sensor detector
// must stay silent through them. Coordinator loss pushes racks into
// CB-only mode, which bid-throttles the interactive cores; Eq. (5)'s
// interactive estimate is exact only at peak frequency, and comparing a
// reading with an estimate made while throttled raised sensor-anomaly
// alerts (model gap 602–707 W) on racks whose monitors were fine.
func TestSensorDetectorSilentOnNetworkFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two E19 network conditions")
	}
	for _, r := range PartitionRows() {
		if r.Label != "partition-all-300s" && r.Label != "coord-crash-60s" {
			continue
		}
		cfg := cluster.DefaultConfig()
		cfg.Link.Enabled = true
		cfg.Scenario.Faults = r.Plan
		oc := obs.NewCluster(cfg.NumRacks, obs.DefaultDetectorConfig())
		cfg.Link.Obs = oc
		if _, err := cluster.RunLinked(cfg); err != nil {
			t.Fatal(err)
		}
		for _, a := range oc.Alerts() {
			if a.Detector == obs.DetectorSensor {
				t.Errorf("%s: sensor-anomaly on rack %d at t=%g s with healthy monitors: %s", r.Label, a.Rack, a.AtS, a.Detail)
			}
		}
	}
}
