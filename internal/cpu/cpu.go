// Package cpu models CPU cores with per-core DVFS, the hardware adaptation
// knob SprintCon manipulates (paper Section IV-D): a discrete P-state table
// from 400 MHz to 2.0 GHz, per-core frequency and utilization state, and a
// workload-class tag telling the controllers which cores run interactive
// versus batch work.
package cpu

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Class labels what a core is running. SprintCon's server power controller
// keeps Interactive cores at peak frequency and manipulates only Batch cores
// (paper Section IV-C).
type Class int

const (
	// Idle cores run no workload.
	Idle Class = iota
	// Interactive cores serve latency-critical request traffic.
	Interactive
	// Batch cores run throughput work with deadlines in minutes.
	Batch
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Idle:
		return "idle"
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// PStateTable is an immutable, ascending table of available core
// frequencies in GHz. It marshals to JSON as the plain frequency list so
// scenario files stay readable.
type PStateTable struct {
	freqs []float64
}

// MarshalJSON implements json.Marshaler.
func (t PStateTable) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.freqs)
}

// UnmarshalJSON implements json.Unmarshaler, validating that the list is
// non-empty, positive and strictly ascending.
func (t *PStateTable) UnmarshalJSON(data []byte) error {
	var freqs []float64
	if err := json.Unmarshal(data, &freqs); err != nil {
		return err
	}
	if len(freqs) == 0 {
		return errors.New("cpu: empty P-state list")
	}
	for i, f := range freqs {
		if f <= 0 {
			return fmt.Errorf("cpu: P-state %d = %g must be positive", i, f)
		}
		if i > 0 && f <= freqs[i-1] {
			return fmt.Errorf("cpu: P-states not strictly ascending at %d", i)
		}
	}
	t.freqs = freqs
	return nil
}

// NewPStateTable builds a table covering [minGHz, maxGHz] in steps of
// stepGHz (the last state is exactly maxGHz).
func NewPStateTable(minGHz, maxGHz, stepGHz float64) (PStateTable, error) {
	if minGHz <= 0 || maxGHz <= minGHz || stepGHz <= 0 {
		return PStateTable{}, errors.New("cpu: need 0 < min < max and step > 0")
	}
	var freqs []float64
	for f := minGHz; f < maxGHz-1e-9; f += stepGHz {
		freqs = append(freqs, f)
	}
	freqs = append(freqs, maxGHz)
	return PStateTable{freqs: freqs}, nil
}

// DefaultPStates returns the paper's 400 MHz – 2.0 GHz range in 100 MHz steps.
func DefaultPStates() PStateTable {
	t, err := NewPStateTable(0.4, 2.0, 0.1)
	if err != nil {
		panic(err) // statically valid
	}
	return t
}

// Min returns the lowest frequency.
func (t PStateTable) Min() float64 { return t.freqs[0] }

// Max returns the highest frequency.
func (t PStateTable) Max() float64 { return t.freqs[len(t.freqs)-1] }

// Len returns the number of P-states.
func (t PStateTable) Len() int { return len(t.freqs) }

// Freqs returns a copy of the table.
func (t PStateTable) Freqs() []float64 {
	out := make([]float64, len(t.freqs))
	copy(out, t.freqs)
	return out
}

// Quantize maps a requested frequency to the nearest available P-state
// (ties round up), clamping to the table's range.
func (t PStateTable) Quantize(f float64) float64 {
	if f <= t.freqs[0] {
		return t.freqs[0]
	}
	last := len(t.freqs) - 1
	if f >= t.freqs[last] {
		return t.freqs[last]
	}
	// Binary search for the first state ≥ f.
	lo, hi := 0, last
	for lo < hi {
		mid := (lo + hi) / 2
		if t.freqs[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && f-t.freqs[lo-1] < t.freqs[lo]-f {
		return t.freqs[lo-1]
	}
	return t.freqs[lo]
}

// Core is one CPU core's visible state.
type Core struct {
	Freq  float64 // current frequency, GHz (a valid P-state)
	Util  float64 // utilization in [0, 1] over the last period
	Class Class
}

// CPU is a set of cores sharing one P-state table, with per-core DVFS
// (paper Section IV-D: DVFS is applied per core for small overhead).
//
// The per-core state is stored struct-of-arrays — parallel freqs/utils/
// classes slices — so the per-tick plant math (power summation, batch
// frequency writes) runs as contiguous slice sweeps instead of strided
// struct walks. Core(i) reassembles the array-of-structs view on demand.
type CPU struct {
	table   PStateTable
	freqs   []float64
	utils   []float64
	classes []Class
}

// New returns a CPU with n idle cores at the lowest P-state.
func New(n int, table PStateTable) (*CPU, error) {
	if n <= 0 {
		return nil, errors.New("cpu: need at least one core")
	}
	if table.Len() == 0 {
		return nil, errors.New("cpu: empty P-state table")
	}
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = table.Min()
	}
	return &CPU{
		table:   table,
		freqs:   freqs,
		utils:   make([]float64, n),
		classes: make([]Class, n),
	}, nil
}

// NumCores returns the number of cores.
func (c *CPU) NumCores() int { return len(c.freqs) }

// Table returns the P-state table.
func (c *CPU) Table() PStateTable { return c.table }

// Core returns core i's state.
func (c *CPU) Core(i int) Core {
	return Core{Freq: c.freqs[i], Util: c.utils[i], Class: c.classes[i]}
}

// Freqs returns the per-core frequency slice. It is live state shared with
// the CPU — read-only for callers; use SetFreq to mutate.
func (c *CPU) Freqs() []float64 { return c.freqs }

// Utils returns the per-core utilization slice (live, read-only).
func (c *CPU) Utils() []float64 { return c.utils }

// SetFreq requests frequency f on core i; the applied (quantized) frequency
// is returned. This is the paper's "server modulator" writing a frequency.
func (c *CPU) SetFreq(i int, f float64) float64 {
	q := c.table.Quantize(f)
	c.freqs[i] = q
	return q
}

// SetUtil records core i's measured utilization, clamped to [0, 1].
func (c *CPU) SetUtil(i int, u float64) {
	c.utils[i] = math.Min(1, math.Max(0, u))
}

// SetClass assigns the workload class of core i.
func (c *CPU) SetClass(i int, cl Class) { c.classes[i] = cl }
