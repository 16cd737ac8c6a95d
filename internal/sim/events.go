package sim

import (
	"fmt"
	"sort"
)

// Event is one timestamped occurrence during a sprint: a supervisor mode
// transition, a breaker trip or reclose, an outage boundary, a budget
// change. The event log is how an operator reconstructs what a controller
// did and why.
type Event struct {
	T    float64 // simulation time in seconds
	Kind string  // stable machine-readable kind, e.g. "cb-trip"
	Msg  string  // human-readable detail
	// Seq is the append order within the run; it breaks ties between
	// events stamped at the same instant (e.g. a fault onset and the
	// supervisor reaction it provokes) so that identical runs always
	// produce byte-identical logs.
	Seq int
}

// String formats the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("[%7.1fs] %-14s %s", e.T, e.Kind, e.Msg)
}

// EventLog collects events during a run. The engine stamps the current
// simulation time; policies append through Logf without tracking time
// themselves. The zero value is unusable; the engine provides one in Env.
type EventLog struct {
	now    float64
	base   int // sequence offset for resumed runs
	drop   bool
	events []Event
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// SetNow stamps the time attached to subsequent events (engine use).
func (l *EventLog) SetNow(t float64) { l.now = t }

// SetBase offsets subsequent sequence numbers (engine use, for runs resumed
// from a checkpoint): the resumed log continues numbering where the original
// run stopped, so merged logs keep a single total order.
func (l *EventLog) SetBase(n int) { l.base = n }

// Len returns the next sequence number to be assigned (base + events logged
// so far) — what a checkpoint records so a resumed log continues numbering.
func (l *EventLog) Len() int { return l.base + len(l.events) }

// Discard switches the log to drop mode: subsequent Logf calls are
// no-ops and Len stops advancing. Used by benchmarks that measure the
// engine's allocation cost, where formatting log entries would be noise.
func (l *EventLog) Discard() { l.drop = true }

// Enabled reports whether Logf records anything. Hot call sites check it
// before building a Logf call: the variadic arguments are boxed by the
// caller, so skipping the call is the only way to keep a dropped log
// allocation-free.
func (l *EventLog) Enabled() bool { return !l.drop }

// Logf appends an event at the current simulation time.
func (l *EventLog) Logf(kind, format string, args ...interface{}) {
	if l.drop {
		return
	}
	l.events = append(l.events, Event{
		T:    l.now,
		Kind: kind,
		Msg:  fmt.Sprintf(format, args...),
		Seq:  l.base + len(l.events),
	})
}

// Events returns the recorded events in stable time order: ties at the same
// instant keep their append order via Seq, so two identical seeded runs
// render byte-identical logs.
func (l *EventLog) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
