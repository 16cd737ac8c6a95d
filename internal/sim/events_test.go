package sim

import (
	"strings"
	"testing"
)

func TestEventLogBasics(t *testing.T) {
	l := NewEventLog()
	l.SetNow(5)
	l.Logf("a", "hello %d", 1)
	l.SetNow(2)
	l.Logf("b", "world")
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	// Time-ordered regardless of append order.
	if evs[0].T != 2 || evs[1].T != 5 {
		t.Fatalf("order wrong: %v", evs)
	}
	if evs[1].Msg != "hello 1" || evs[1].Kind != "a" {
		t.Fatalf("event = %+v", evs[1])
	}
	if !strings.Contains(evs[0].String(), "world") {
		t.Fatalf("String = %q", evs[0].String())
	}
	// Events() returns a copy.
	evs[0].Kind = "mutated"
	if l.Events()[0].Kind == "mutated" {
		t.Fatal("Events must return a copy")
	}
}

func TestEngineRecordsTripAndOutageEvents(t *testing.T) {
	scn := DefaultScenario()
	p := &stubPolicy{name: "maxpower", onTick: func(env *Env, s Snapshot) float64 {
		for _, srv := range env.Rack.Servers() {
			for c := 0; c < srv.CPU().NumCores(); c++ {
				srv.CPU().SetFreq(c, 2.0)
			}
		}
		return 0
	}}
	res, err := Run(scn, p)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range res.Events {
		kinds[e.Kind]++
	}
	if kinds["cb-trip"] == 0 {
		t.Fatalf("no cb-trip event recorded: %v", kinds)
	}
	if kinds["outage"] == 0 {
		t.Fatalf("no outage event recorded: %v", kinds)
	}
	if kinds["cb-reclose"] == 0 {
		t.Fatalf("no cb-reclose event recorded: %v", kinds)
	}
	// Events carry plausible timestamps within the run.
	for _, e := range res.Events {
		if e.T < 0 || e.T > scn.DurationS {
			t.Fatalf("event time %v outside the run", e.T)
		}
	}
}
