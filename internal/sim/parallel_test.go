package sim

import (
	"strings"
	"testing"
)

func TestRunManyMatchesSequential(t *testing.T) {
	scn := shortScenario()
	seq, err := Run(scn, &stubPolicy{name: "a"})
	if err != nil {
		t.Fatal(err)
	}

	jobs := []Job{
		{Key: "a", Scenario: scn, Policy: &stubPolicy{name: "a"}},
		{Key: "b", Scenario: scn, Policy: &stubPolicy{name: "b", upsReq: 300}},
		{Key: "c", Scenario: scn, Policy: &stubPolicy{name: "c"}},
	}
	got, err := RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("results = %d", len(got))
	}
	// Determinism: the concurrent run of job "a" matches the sequential run.
	if got["a"].EnergyTotalWh != seq.EnergyTotalWh || got["a"].UPSDoD != seq.UPSDoD {
		t.Fatal("concurrent result differs from sequential")
	}
	// The UPS-using job actually differs.
	if got["b"].UPSDischargedWh == 0 {
		t.Fatal("job b should have discharged the UPS")
	}
}

func TestRunManyValidation(t *testing.T) {
	scn := shortScenario()
	if _, err := RunMany([]Job{{Key: "", Scenario: scn, Policy: &stubPolicy{name: "x"}}}); err == nil {
		t.Fatal("empty key should error")
	}
	if _, err := RunMany([]Job{
		{Key: "dup", Scenario: scn, Policy: &stubPolicy{name: "x"}},
		{Key: "dup", Scenario: scn, Policy: &stubPolicy{name: "y"}},
	}); err == nil {
		t.Fatal("duplicate keys should error")
	}
	empty, err := RunMany(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("nil jobs: %v, %v", empty, err)
	}
	bad := scn
	bad.DurationS = 0
	if _, err := RunMany([]Job{{Key: "bad", Scenario: bad, Policy: &stubPolicy{name: "x"}}}); err == nil {
		t.Fatal("invalid scenario should propagate")
	}
}

// Errors surface in job order, not completion order: with two failing
// jobs the first one listed is always the one reported.
func TestRunManyErrorInJobOrder(t *testing.T) {
	bad := shortScenario()
	bad.DurationS = 0
	for range 5 {
		_, err := RunMany([]Job{
			{Key: "z-first", Scenario: bad, Policy: &stubPolicy{name: "x"}},
			{Key: "a-second", Scenario: bad, Policy: &stubPolicy{name: "y"}},
		})
		if err == nil || !strings.Contains(err.Error(), "z-first") {
			t.Fatalf("error %v, want the first job's", err)
		}
	}
}
