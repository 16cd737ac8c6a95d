package engine

// Kind classifies a barrier event. The numeric order is part of the
// deterministic tie-break (same step → lower kind first), so values are
// stable API: append new kinds at the end.
type Kind uint8

const (
	// KindRunEnd marks the last step of the run.
	KindRunEnd Kind = iota
	// KindTraceEdge marks the first tick whose interactive demand differs
	// from the span's constant value.
	KindTraceEdge
	// KindJobPhase marks the first tick at which some batch job may cross a
	// workload phase boundary (utilization change).
	KindJobPhase
	// KindPolicyEdge marks the first tick at which the policy's budget
	// schedule (allocator overload/recovery phase, fail-safe expiry) may
	// move.
	KindPolicyEdge
	// KindFaultTransition marks the first tick at which an injected fault
	// changes activity (onset or clear).
	KindFaultTransition
	// KindCaptureDue marks the first tick whose checkpoint capture fires.
	KindCaptureDue
)

// String names the kind for logs and checkpoint dumps.
func (k Kind) String() string {
	switch k {
	case KindRunEnd:
		return "run-end"
	case KindTraceEdge:
		return "trace-edge"
	case KindJobPhase:
		return "job-phase"
	case KindPolicyEdge:
		return "policy-edge"
	case KindFaultTransition:
		return "fault-transition"
	case KindCaptureDue:
		return "capture-due"
	}
	return "unknown"
}

// Event is one pending barrier: the step index at which it fires and why.
// Seq is the insertion sequence, the final tie-break, so the pop order of a
// Queue is a pure function of the push sequence (deterministic across runs
// and across checkpoint restore).
type Event struct {
	Step int64
	Kind Kind
	Seq  uint64
}

// Queue is a deterministic binary min-heap of pending events, ordered by
// (Step, Kind, Seq). The zero value is ready; Reset reuses the backing
// array, so a steady-state plan-pop cycle performs no allocation.
type Queue struct {
	h   []Event
	seq uint64
}

// Reset empties the queue, keeping capacity. Sequence numbers continue, so
// events pushed after a Reset still order deterministically against any
// snapshot taken before it.
func (q *Queue) Reset() {
	q.h = q.h[:0]
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Push inserts an event at the given step.
func (q *Queue) Push(step int64, kind Kind) {
	e := Event{Step: step, Kind: kind, Seq: q.seq}
	q.seq++
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// Pop removes and returns the earliest event (ok=false when empty).
func (q *Queue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && eventLess(q.h[l], q.h[small]) {
			small = l
		}
		if r < last && eventLess(q.h[r], q.h[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
	return top, true
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

func eventLess(a, b Event) bool {
	if a.Step != b.Step {
		return a.Step < b.Step
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Seq < b.Seq
}
