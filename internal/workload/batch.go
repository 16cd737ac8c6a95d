// Package workload provides the two workload substrates of the paper's
// evaluation (Section VI-A):
//
//   - batch workloads modeled on the SPEC CPU2006 benchmarks the authors ran
//     (CINT 400/401/403/429 and CFP 433/444/447/450), each with a
//     memory-boundness parameter feeding a CoScale-style progress model [12]
//     that predicts how DVFS affects execution time, and
//   - an interactive workload generator with the statistical shape of the
//     Wikipedia data-center trace [31]: diurnal baseline, a flash-crowd
//     burst, autocorrelated noise and occasional spikes.
//
// The physical trace-collection step of the paper is replaced by these
// deterministic, seeded generators; see DESIGN.md §2 for the substitution
// rationale.
package workload

import (
	"errors"
	"fmt"
	"math"

	"sprintcon/internal/engine"
)

// BatchSpec is the static description of one batch benchmark.
type BatchSpec struct {
	// Name identifies the benchmark (SPEC CPU2006 numbering).
	Name string
	// MemBound is the fraction β of execution time that does not scale
	// with core frequency (memory/IO stalls). The CoScale-style progress
	// model gives relative speed r(f) = 1/(β + (1−β)·f_max/f).
	MemBound float64
	// Util is the core utilization the benchmark sustains while running.
	Util float64
	// PeakSeconds is the execution time at peak frequency.
	PeakSeconds float64
	// Phases optionally subdivides the run into regions with their own
	// memory-boundness and utilization (fractions must sum to 1). Empty
	// means a single uniform phase with the aggregate MemBound/Util.
	Phases []Phase
}

// Validate reports structural errors in the spec.
func (s BatchSpec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("workload: batch spec needs a name")
	case s.MemBound < 0 || s.MemBound >= 1:
		return fmt.Errorf("workload: %s: MemBound must be in [0, 1)", s.Name)
	case s.Util <= 0 || s.Util > 1:
		return fmt.Errorf("workload: %s: Util must be in (0, 1]", s.Name)
	case s.PeakSeconds <= 0:
		return fmt.Errorf("workload: %s: PeakSeconds must be positive", s.Name)
	}
	return validatePhases(s.Name, s.Phases)
}

// Rate returns the aggregate execution speed at frequency f relative to
// peak frequency fmax: 1 at f = fmax, falling toward 0 as f → 0 for
// compute-bound workloads and staying near 1 for memory-bound ones. For
// phased specs this is exact over a whole execution (per-unit-work time is
// linear in β, so the work-weighted β̄ aggregates exactly).
func (s BatchSpec) Rate(f, fmax float64) float64 {
	if f <= 0 {
		return 0
	}
	if f > fmax {
		f = fmax
	}
	beta := s.EffectiveMemBound()
	return 1 / (beta + (1-beta)*fmax/f)
}

// Speedup returns the speed at f relative to the speed at fref.
func (s BatchSpec) Speedup(f, fref, fmax float64) float64 {
	return s.Rate(f, fmax) / s.Rate(fref, fmax)
}

// SpecCPU2006 returns models of the eight benchmarks of the paper's
// physical tests. Memory-boundness values follow published DVFS-sensitivity
// characterizations: mcf and milc are strongly memory bound, namd and
// perlbench almost purely compute bound.
func SpecCPU2006() []BatchSpec {
	return []BatchSpec{
		{Name: "400.perlbench", MemBound: 0.10, Util: 0.99, PeakSeconds: 340},
		{Name: "401.bzip2", MemBound: 0.16, Util: 0.98, PeakSeconds: 290},
		// gcc alternates parsing/optimization (compute) with pointer
		// chasing; its phases average to the aggregate parameters.
		{Name: "403.gcc", MemBound: 0.26, Util: 0.96, PeakSeconds: 260, Phases: []Phase{
			{Frac: 0.40, MemBound: 0.10, Util: 0.98},
			{Frac: 0.35, MemBound: 0.40, Util: 0.94},
			{Frac: 0.25, MemBound: 0.32, Util: 0.95},
		}},
		// mcf's long pointer-chasing phase dominates a short setup phase.
		{Name: "429.mcf", MemBound: 0.58, Util: 0.92, PeakSeconds: 380, Phases: []Phase{
			{Frac: 0.25, MemBound: 0.3000, Util: 0.96},
			{Frac: 0.75, MemBound: 0.6733, Util: 0.90},
		}},
		{Name: "433.milc", MemBound: 0.52, Util: 0.93, PeakSeconds: 330},
		{Name: "444.namd", MemBound: 0.07, Util: 0.99, PeakSeconds: 420},
		{Name: "447.dealII", MemBound: 0.19, Util: 0.97, PeakSeconds: 310},
		// soplex splits evenly between factorization and pricing.
		{Name: "450.soplex", MemBound: 0.44, Util: 0.94, PeakSeconds: 300, Phases: []Phase{
			{Frac: 0.50, MemBound: 0.28, Util: 0.96},
			{Frac: 0.50, MemBound: 0.60, Util: 0.92},
		}},
	}
}

// SteadyStateSpecs returns the single-phase subset of SpecCPU2006. A
// single-phase job's utilization is constant across re-execution wraps, so a
// rack running only these reaches an exact steady state between demand
// edges — the job mix for event-engine benchmarks and bit-identity tests.
func SteadyStateSpecs() []BatchSpec {
	var out []BatchSpec
	for _, s := range SpecCPU2006() {
		if len(s.Phases) <= 1 {
			out = append(out, s)
		}
	}
	return out
}

// Fig1Workloads returns the six workloads used for the paper's Fig. 1
// per-watt-speedup analysis (the six distinct sprinting workloads of [4];
// here, the six most DVFS-diverse of the SPEC set).
func Fig1Workloads() []BatchSpec {
	all := SpecCPU2006()
	return []BatchSpec{all[0], all[2], all[3], all[4], all[5], all[7]}
}

// BatchJob is the mutable execution state of one batch workload instance
// bound to one CPU core.
type BatchJob struct {
	Spec BatchSpec
	// Deadline is the absolute completion deadline in seconds of
	// simulation time; work must finish by then (paper Section VII-D:
	// deferment is not an option).
	Deadline float64

	startTime float64
	totalWork float64 // peak-seconds to complete once
	remaining float64
	doneAt    float64 // first completion time, NaN until complete
	completed int     // completions (paper: jobs re-execute immediately)
	execSecs  float64 // wall seconds spent executing
}

// NewBatchJob starts a job at simulation time start with the given absolute
// deadline. The job's work equals the spec's PeakSeconds.
func NewBatchJob(spec BatchSpec, start, deadline float64) (*BatchJob, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if deadline <= start {
		return nil, fmt.Errorf("workload: %s: deadline %g not after start %g", spec.Name, deadline, start)
	}
	return &BatchJob{
		Spec:      spec,
		Deadline:  deadline,
		startTime: start,
		totalWork: spec.PeakSeconds,
		remaining: spec.PeakSeconds,
		doneAt:    math.NaN(),
	}, nil
}

// ScaleWork multiplies the job's total (and remaining) work, used by the
// experiments to size jobs relative to their deadlines. It must be called
// before any Advance.
func (j *BatchJob) ScaleWork(factor float64) {
	if factor <= 0 {
		panic("workload: ScaleWork factor must be positive")
	}
	if j.execSecs > 0 {
		panic("workload: ScaleWork after execution started")
	}
	j.totalWork *= factor
	j.remaining = j.totalWork
}

// Advance executes the job for dt seconds at frequency f (with table peak
// fmax) starting at simulation time now, walking phase boundaries at their
// own rates. On completion it records the completion time and immediately
// restarts (continuous re-execution, as in the paper's trace methodology).
func (j *BatchJob) Advance(f, fmax, dt, now float64) {
	if dt < 0 {
		panic("workload: negative dt")
	}
	j.execSecs += dt
	timeLeft := dt
	for timeLeft > 1e-12 {
		pos := j.totalWork - j.remaining
		idx := j.Spec.phaseIndexAt(pos, j.totalWork)
		rate := phaseRate(j.Spec.phases()[idx], f, fmax)
		if rate <= 0 {
			return
		}
		segWork := j.Spec.phaseEndWork(idx, j.totalWork) - pos
		if segWork > j.remaining {
			segWork = j.remaining
		}
		segTime := segWork / rate
		if segTime > timeLeft {
			j.remaining -= rate * timeLeft
			return
		}
		timeLeft -= segTime
		j.remaining -= segWork
		if j.remaining <= 1e-9 {
			t := now + (dt - timeLeft) // within-step completion time
			if math.IsNaN(j.doneAt) {
				j.doneAt = t
			}
			j.completed++
			j.remaining = j.totalWork // re-execute immediately
		}
	}
}

// AdvanceTicks executes the n consecutive dt-second ticks step0..step0+n−1
// at constant frequency f, bit-identically to calling
// Advance(f, fmax, dt, float64(step0+k)·dt) for k = 0..n−1 (the tick
// engine's clock expression), in O(phase edges + completions + binades)
// instead of O(n).
//
// Every tick adds dt to execSecs, so execSecs closes with one
// engine.AddN. A tick that provably stays inside the current phase segment
// reduces Advance to remaining -= rate·dt. Its gate, segWork/rate > dt, is
// monotone in remaining, and remaining only falls, so the ticks that pass it
// form a prefix of the span, closed by inSegmentTicks. The first tick that
// fails the gate (a phase boundary, completion or wrap) goes through the
// exact Advance, after which the phase is re-derived. The event engine uses
// this to replay batch progress across quiescent spans.
func (j *BatchJob) AdvanceTicks(f, fmax, dt float64, step0, n int) {
	if dt < 0 {
		panic("workload: negative dt")
	}
	if n <= 0 {
		return
	}
	exec0 := j.execSecs
	// Advance's segment loop never runs at dt ≤ 1e-12, and a phase that
	// makes no progress cannot change: such ticks only accrue wall time.
	for k := 0; k < n && dt > 1e-12; {
		pos := j.totalWork - j.remaining
		idx := j.Spec.phaseIndexAt(pos, j.totalWork)
		rate := phaseRate(j.Spec.phases()[idx], f, fmax)
		if rate <= 0 {
			break
		}
		endW := j.Spec.phaseEndWork(idx, j.totalWork)
		step := rate * dt // == rate*timeLeft with timeLeft = dt, bit-exact
		k += j.inSegmentTicks(endW, rate, dt, step, n-k)
		if k == n {
			break
		}
		// Boundary, completion or wrap inside this tick: exact slow path,
		// then re-derive the phase.
		j.Advance(f, fmax, dt, float64(step0+k)*dt)
		k++
	}
	j.execSecs = engine.AddN(exec0, dt, n)
}

// inSegmentTicks runs remaining -= step for a prefix of up to n ticks that
// pass Advance's within-segment gate and returns its length. Before tick k
// remaining is exactly R(k) = engine.AddN(r0, −step, k), and the gate is
// monotone in it, so the passing ticks are a prefix, and ticks 0..k−1 pass
// exactly when tick k−1 does. The gate fails once remaining has fallen to
// the work beyond the segment plus one tick's progress, which estimates the
// prefix length. An estimate that falls short costs only time, as Advance
// runs the next tick exactly either way; one that overshoots is cut back by
// a binary search for the first failing tick.
func (j *BatchJob) inSegmentTicks(endW, rate, dt, step float64, n int) int {
	r0 := j.remaining
	k := n
	if est := math.Ceil((r0 - (j.totalWork - endW) - step) / step); est < float64(n) {
		k = int(math.Max(est, 0))
	}
	if k == 0 {
		return 0
	}
	if r := engine.AddN(r0, -step, k-1); j.inSegment(r, endW, rate, dt) {
		j.remaining = r - step
		return k
	}
	// The gate passes at R(lo) (or lo = −1) and fails at R(hi).
	lo, hi := -1, k-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if j.inSegment(engine.AddN(r0, -step, mid), endW, rate, dt) {
			lo = mid
		} else {
			hi = mid
		}
	}
	j.remaining = engine.AddN(r0, -step, hi)
	return hi
}

// inSegment is Advance's within-segment gate at remaining work r: the
// tick's dt cannot reach the end of the current phase segment (endW) or of
// the execution.
func (j *BatchJob) inSegment(r, endW, rate, dt float64) bool {
	segWork := endW - (j.totalWork - r)
	if segWork > r {
		segWork = r
	}
	return segWork/rate > dt
}

// StableTicks returns a conservative count of whole dt-second ticks of
// execution at constant frequency f during which CurrentUtil() cannot
// change. Single-phase specs report an effectively unbounded horizon: their
// utilization is constant even across re-execution wraps. Multi-phase specs
// report the ticks that certainly remain inside the current phase, which
// the event engine uses as a quiescent-span barrier.
func (j *BatchJob) StableTicks(f, fmax, dt float64) int {
	const unbounded = math.MaxInt32
	phases := j.Spec.phases()
	if len(phases) == 1 {
		return unbounded
	}
	pos := j.totalWork - j.remaining
	idx := j.Spec.phaseIndexAt(pos, j.totalWork)
	rate := phaseRate(phases[idx], f, fmax)
	if rate <= 0 {
		return unbounded // no progress at f ≤ 0: the phase cannot change
	}
	segWork := j.Spec.phaseEndWork(idx, j.totalWork) - pos
	if segWork > j.remaining {
		segWork = j.remaining
	}
	n := int(segWork/rate/dt) - 1
	if n < 0 {
		n = 0
	}
	return n
}

// Progress returns completed fraction of the current execution in [0, 1).
func (j *BatchJob) Progress() float64 { return 1 - j.remaining/j.totalWork }

// WorkDone returns the total work executed so far in peak-seconds
// (completed executions plus the current one's progress) — the throughput
// numerator for energy-efficiency accounting.
func (j *BatchJob) WorkDone() float64 {
	return float64(j.completed)*j.totalWork + (j.totalWork - j.remaining)
}

// Completed reports whether the job has finished at least once.
func (j *BatchJob) Completed() bool { return !math.IsNaN(j.doneAt) }

// CompletionTime returns the first completion time (NaN if none yet).
func (j *BatchJob) CompletionTime() float64 { return j.doneAt }

// MissedDeadline reports whether the first completion came after the
// deadline, or has not come although now is past the deadline.
func (j *BatchJob) MissedDeadline(now float64) bool {
	if j.Completed() {
		return j.doneAt > j.Deadline
	}
	return now >= j.Deadline
}

// RemainingSeconds estimates the wall time to complete the current
// execution at constant frequency f (+Inf at f ≤ 0), integrating across the
// remaining phase segments. This is the "short-term profiling" estimate
// the power load allocator uses.
func (j *BatchJob) RemainingSeconds(f, fmax float64) float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	pos := j.totalWork - j.remaining
	phases := j.Spec.phases()
	var cum, secs float64
	for _, p := range phases {
		segStart := cum
		cum += p.Frac * j.totalWork
		if cum <= pos {
			continue
		}
		w := cum - math.Max(segStart, pos)
		secs += w / phaseRate(p, f, fmax)
	}
	return secs
}

// RWeight returns the paper's control-penalty weight for this job's core:
// remaining progress over normalized remaining time before deadline
// (Section V-B: 80 % done, 6 min used, 4 min left → R = 0.5). Jobs that are
// behind schedule get larger R, hence more frequency. After first
// completion the weight reflects a relaxed re-execution (low urgency).
func (j *BatchJob) RWeight(now float64) float64 {
	if j.Completed() {
		return 0.1 // re-execution rounds: lowest urgency
	}
	total := j.Deadline - j.startTime
	left := j.Deadline - now
	if left <= 0 {
		return 100 // past deadline: maximal urgency
	}
	normLeft := left / total
	w := (1 - j.Progress()) / normLeft
	if w < 0.01 {
		w = 0.01
	}
	if w > 100 {
		w = 100
	}
	return w
}
