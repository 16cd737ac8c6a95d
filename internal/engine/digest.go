// Package engine provides the primitives of the discrete-event simulation
// core (DESIGN.md §15): a state digest used to certify exact floating-point
// fixed points of the controller + plant state machine, a deterministic
// event queue that merges the barrier events — workload phase edges,
// control-period and allocator budget boundaries, fault onsets and clears,
// checkpoint-capture deadlines, run end — bounding each quiescent span, and
// the exact repeated-add kernels that close a span's per-tick accumulators
// without replaying its ticks. The package is a leaf: control and core
// append their state to a Digest without importing the simulation engine.
package engine

import (
	"bytes"
	"encoding/binary"
	"math"
)

// Digest records typed values as a sequence of 64-bit words. Two digests
// are Equal only if every appended value is bit-identical (floats compare by
// their IEEE-754 bit patterns, so −0 ≠ +0 and NaN payloads matter — the
// strict direction for fixed-point certification). The comparison is exact:
// unlike a hash, two different state vectors can never certify as equal.
// The words are kept little-endian in a byte buffer, so Equal is one memory
// comparison. The zero value is an empty digest; Reset keeps the buffer, so
// a reused digest does not allocate in steady state.
type Digest struct {
	buf []byte
}

// Reset empties the digest, keeping its capacity.
func (d *Digest) Reset() {
	d.buf = d.buf[:0]
}

// Equal reports whether d and o hold the same word sequence.
func (d *Digest) Equal(o *Digest) bool {
	return bytes.Equal(d.buf, o.buf)
}

// U64 appends one 64-bit word.
func (d *Digest) U64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
}

// F64 appends one float64 by bit pattern.
func (d *Digest) F64(v float64) {
	d.U64(math.Float64bits(v))
}

// F64s appends a float64 slice, length first (so [a][b] ≠ [a,b][]).
func (d *Digest) F64s(vs []float64) {
	d.U64(uint64(len(vs)))
	for _, v := range vs {
		d.U64(math.Float64bits(v))
	}
}

// Int appends one int.
func (d *Digest) Int(v int) {
	d.U64(uint64(int64(v)))
}

// Ints appends an int slice, length first.
func (d *Digest) Ints(vs []int) {
	d.U64(uint64(len(vs)))
	for _, v := range vs {
		d.U64(uint64(int64(v)))
	}
}

// Bool appends one bool.
func (d *Digest) Bool(v bool) {
	if v {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// Bools appends a bool slice, length first.
func (d *Digest) Bools(vs []bool) {
	d.U64(uint64(len(vs)))
	for _, v := range vs {
		d.Bool(v)
	}
}
