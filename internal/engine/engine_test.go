package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestDigestDistinguishesBitPatterns(t *testing.T) {
	equal := func(fillA, fillB func(d *Digest)) bool {
		var a, b Digest
		fillA(&a)
		fillB(&b)
		return a.Equal(&b)
	}
	f64 := func(v float64) func(d *Digest) { return func(d *Digest) { d.F64(v) } }
	if !equal(f64(1.0), f64(1.0)) {
		t.Fatal("identical values compared unequal")
	}
	if equal(f64(1.0), f64(math.Nextafter(1, 2))) {
		t.Fatal("one-ulp difference compared equal")
	}
	if equal(f64(0.0), f64(math.Copysign(0, -1))) {
		t.Fatal("+0 and −0 compared equal; the digest must be bit-strict")
	}
	if equal(f64(math.Float64frombits(0x7ff8000000000001)), f64(math.Float64frombits(0x7ff8000000000002))) {
		t.Fatal("distinct NaN payloads compared equal")
	}
}

func TestDigestLengthFraming(t *testing.T) {
	var a, b Digest
	a.F64s([]float64{1})
	a.F64s(nil)
	b.F64s(nil)
	b.F64s([]float64{1})
	if a.Equal(&b) {
		t.Fatal("length framing failed: [1],[] compared equal to [],[1]")
	}
}

func TestDigestResetMatchesFresh(t *testing.T) {
	var d Digest
	d.F64(3.5)
	d.F64(4.5)
	d.Reset()
	d.Int(-7)
	d.Bool(true)
	var fresh Digest
	fresh.Int(-7)
	fresh.Bool(true)
	if !d.Equal(&fresh) {
		t.Fatal("Reset digest differs from a fresh digest over the same values")
	}
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset()
		d.Int(-7)
		d.Bool(true)
	})
	if allocs != 0 {
		t.Fatalf("a reused digest allocates %.1f times per fill", allocs)
	}
}

func TestQueueOrdersByStepKindSeq(t *testing.T) {
	var q Queue
	q.Push(10, KindJobPhase)
	q.Push(5, KindCaptureDue)
	q.Push(10, KindRunEnd)
	q.Push(5, KindCaptureDue) // same step+kind: earlier push pops first
	q.Push(7, KindTraceEdge)

	want := []Event{
		{Step: 5, Kind: KindCaptureDue, Seq: 1},
		{Step: 5, Kind: KindCaptureDue, Seq: 3},
		{Step: 7, Kind: KindTraceEdge, Seq: 4},
		{Step: 10, Kind: KindRunEnd, Seq: 2},
		{Step: 10, Kind: KindJobPhase, Seq: 0},
	}
	for i, w := range want {
		e, ok := q.Pop()
		if !ok || e != w {
			t.Fatalf("pop %d: got %+v ok=%v, want %+v", i, e, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue returned ok")
	}
}

func TestQueuePopIsDeterministicSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue
	var ref []Event
	for i := 0; i < 500; i++ {
		step := int64(rng.Intn(64))
		kind := Kind(rng.Intn(6))
		q.Push(step, kind)
		ref = append(ref, Event{Step: step, Kind: kind, Seq: uint64(i)})
	}
	sort.Slice(ref, func(i, j int) bool { return eventLess(ref[i], ref[j]) })
	for i, w := range ref {
		e, ok := q.Pop()
		if !ok || e != w {
			t.Fatalf("pop %d: got %+v, want %+v", i, e, w)
		}
	}
}

func TestQueueResetKeepsSequenceMonotonic(t *testing.T) {
	var q Queue
	q.Push(1, KindRunEnd)
	q.Push(2, KindRunEnd)
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset left events pending")
	}
	q.Push(1, KindRunEnd)
	e, _ := q.Pop()
	if e.Seq != 2 {
		t.Fatalf("sequence restarted after Reset: got %d, want 2", e.Seq)
	}
}

func TestQueueSteadyStateDoesNotAllocate(t *testing.T) {
	var q Queue
	for i := 0; i < 8; i++ {
		q.Push(int64(i), KindJobPhase) // warm the backing array
	}
	q.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		q.Reset()
		q.Push(3, KindRunEnd)
		q.Push(1, KindTraceEdge)
		q.Push(2, KindPolicyEdge)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state plan-pop cycle allocates %.1f times per run", allocs)
	}
}
