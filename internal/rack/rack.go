// Package rack assembles servers into the paper's evaluation unit: a rack
// of 16 servers behind one circuit breaker and one UPS. It binds batch jobs
// to cores, applies interactive demand to the interactive cores, provides
// the (noisy) rack power monitor, and implements the feedback measurement
// model of paper Eq. (5)–(6): batch power cannot be measured directly on
// shared servers, so it is estimated as p_fb = p_total − (K'·U + C').
package rack

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sprintcon/internal/cpu"
	"sprintcon/internal/server"
	"sprintcon/internal/workload"
)

// CoreRef addresses one core on one server of the rack.
type CoreRef struct {
	Server int
	Core   int
}

// String formats the reference for logs.
func (r CoreRef) String() string { return fmt.Sprintf("s%d/c%d", r.Server, r.Core) }

// Config describes a rack.
type Config struct {
	// NumServers is the rack size (paper: 16).
	NumServers int
	// ServerParams applies to every server.
	ServerParams server.Params
	// InteractiveCoresPerServer and BatchCoresPerServer partition each
	// server's cores (paper physical tests: 4 workloads per server; the
	// mixed deployment runs both classes on one server, Section IV-C).
	InteractiveCoresPerServer int
	BatchCoresPerServer       int
	// MonitorNoiseStd is the relative standard deviation of the rack
	// power monitor's multiplicative error.
	MonitorNoiseStd float64
	// UtilJitterStd adds per-core noise to interactive utilization so
	// servers are not perfectly balanced.
	UtilJitterStd float64
	// Seed makes monitor noise and jitter deterministic.
	Seed int64
}

// DefaultConfig returns the paper's 16-server rack with a 4/4 split of
// interactive and batch cores per server.
func DefaultConfig() Config {
	return Config{
		NumServers:                16,
		ServerParams:              server.DefaultParams(),
		InteractiveCoresPerServer: 4,
		BatchCoresPerServer:       4,
		MonitorNoiseStd:           0.004,
		UtilJitterStd:             0.03,
		Seed:                      7,
	}
}

// Validate reports structural errors in the configuration.
func (c Config) Validate() error {
	if c.NumServers <= 0 {
		return errors.New("rack: NumServers must be positive")
	}
	if err := c.ServerParams.Validate(); err != nil {
		return err
	}
	if c.InteractiveCoresPerServer < 0 || c.BatchCoresPerServer <= 0 {
		return errors.New("rack: need non-negative interactive and positive batch cores")
	}
	if c.InteractiveCoresPerServer+c.BatchCoresPerServer > c.ServerParams.Cores {
		return fmt.Errorf("rack: %d+%d assigned cores exceed %d per server",
			c.InteractiveCoresPerServer, c.BatchCoresPerServer, c.ServerParams.Cores)
	}
	if c.MonitorNoiseStd < 0 || c.UtilJitterStd < 0 {
		return errors.New("rack: noise parameters must be non-negative")
	}
	return nil
}

// FaultState is the injected component-failure condition of one server,
// applied by the simulation engine each tick. The zero value is healthy.
type FaultState struct {
	// Offline marks a crashed server: it draws no power, executes no
	// work and reports no telemetry until it recovers.
	Offline bool
	// Stuck makes the server's DVFS actuator silently ignore writes.
	Stuck bool
	// LagFrac, when non-zero, makes each frequency write move only this
	// fraction of the way from the current frequency to the command.
	LagFrac float64
}

// Rack is the assembled simulation target.
type Rack struct {
	cfg     Config
	servers []*server.Server
	batch   []CoreRef
	inter   []CoreRef
	jobs    map[CoreRef]*workload.BatchJob
	// jobSeq mirrors jobs in batch-core order (nil for unbound cores) so
	// the per-tick AdvanceBatch/RWeightsInto sweeps walk a contiguous
	// slice instead of hashing a CoreRef per core.
	jobSeq []*workload.BatchJob
	env    server.Environment
	rng    *rand.Rand
	// normDraws counts NormFloat64 calls on rng since construction. A
	// checkpoint records the count and a restore replays it against a
	// fresh seeded source, putting the noise stream back in the exact
	// position it had when the snapshot was taken.
	normDraws int64
	faults    []FaultState
}

// New assembles a rack with all interactive cores at peak frequency and all
// batch cores at the lowest P-state.
func New(cfg Config) (*Rack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Rack{
		cfg:  cfg,
		jobs: make(map[CoreRef]*workload.BatchJob),
		env:  server.Environment{AmbientC: 25},
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cfg.NumServers; i++ {
		s, err := server.New(i, cfg.ServerParams)
		if err != nil {
			return nil, err
		}
		for c := 0; c < cfg.InteractiveCoresPerServer; c++ {
			s.CPU().SetClass(c, cpu.Interactive)
			s.CPU().SetFreq(c, cfg.ServerParams.PStates.Max())
			r.inter = append(r.inter, CoreRef{Server: i, Core: c})
		}
		for c := cfg.InteractiveCoresPerServer; c < cfg.InteractiveCoresPerServer+cfg.BatchCoresPerServer; c++ {
			s.CPU().SetClass(c, cpu.Batch)
			s.CPU().SetFreq(c, cfg.ServerParams.PStates.Min())
			r.batch = append(r.batch, CoreRef{Server: i, Core: c})
		}
		r.servers = append(r.servers, s)
	}
	r.jobSeq = make([]*workload.BatchJob, len(r.batch))
	r.faults = make([]FaultState, cfg.NumServers)
	return r, nil
}

// SetFaultState applies an injected failure condition to one server.
func (r *Rack) SetFaultState(serverIdx int, st FaultState) {
	if serverIdx < 0 || serverIdx >= len(r.faults) {
		return
	}
	r.faults[serverIdx] = st
}

// FaultStateOf returns the current failure condition of one server.
func (r *Rack) FaultStateOf(serverIdx int) FaultState {
	if serverIdx < 0 || serverIdx >= len(r.faults) {
		return FaultState{}
	}
	return r.faults[serverIdx]
}

// ServerOffline reports whether a server is currently crashed. Controllers
// may use this: a dead server is detectable in practice via heartbeat loss,
// unlike a silently stuck actuator.
func (r *Rack) ServerOffline(serverIdx int) bool {
	return r.FaultStateOf(serverIdx).Offline
}

// Config returns the rack configuration.
func (r *Rack) Config() Config { return r.cfg }

// Servers returns the rack's servers (shared state, not a copy).
func (r *Rack) Servers() []*server.Server { return r.servers }

// BatchCores returns the references of all batch cores, in stable order.
func (r *Rack) BatchCores() []CoreRef { return r.batch }

// InteractiveCores returns the references of all interactive cores.
func (r *Rack) InteractiveCores() []CoreRef { return r.inter }

// SetAmbient sets the inlet air temperature seen by every server.
func (r *Rack) SetAmbient(c float64) { r.env.AmbientC = c }

// Environment returns the current disturbance inputs.
func (r *Rack) Environment() server.Environment { return r.env }

// BindJob attaches a batch job to a batch core.
func (r *Rack) BindJob(ref CoreRef, j *workload.BatchJob) error {
	if ref.Server < 0 || ref.Server >= len(r.servers) {
		return fmt.Errorf("rack: bad server index %d", ref.Server)
	}
	if r.servers[ref.Server].CPU().Core(ref.Core).Class != cpu.Batch {
		return fmt.Errorf("rack: core %v is not a batch core", ref)
	}
	r.jobs[ref] = j
	for i, b := range r.batch {
		if b == ref {
			r.jobSeq[i] = j
			break
		}
	}
	return nil
}

// Job returns the job bound to a core (nil if none).
func (r *Rack) Job(ref CoreRef) *workload.BatchJob { return r.jobs[ref] }

// BatchJobs returns the bound jobs in batch-core order, nil for unbound
// cores: the per-control-period sweeps walk it instead of hashing a CoreRef
// per core. The slice is the rack's own; callers must not modify it.
func (r *Rack) BatchJobs() []*workload.BatchJob { return r.jobSeq }

// Jobs returns all bound jobs in batch-core order (skipping unbound cores).
func (r *Rack) Jobs() []*workload.BatchJob {
	out := make([]*workload.BatchJob, 0, len(r.jobs))
	for _, ref := range r.batch {
		if j := r.jobs[ref]; j != nil {
			out = append(out, j)
		}
	}
	return out
}

// ApplyInteractiveDemand sets the utilization of every interactive core
// from the demand fraction plus per-core jitter. Demand is expressed
// relative to a core at peak frequency, so a throttled core is busier for
// the same request stream: util = demand · f_max/f, clamped to 1 (the core
// saturates and requests queue). This coupling is why utilization-ordered
// sprinting (the SGCT baselines) ends up upgrading throttled interactive
// cores.
func (r *Rack) ApplyInteractiveDemand(demand float64) {
	fmax := r.cfg.ServerParams.PStates.Max()
	for _, ref := range r.inter {
		u := demand
		if r.cfg.UtilJitterStd > 0 {
			u += r.rng.NormFloat64() * r.cfg.UtilJitterStd
			r.normDraws++
		}
		if r.faults[ref.Server].Offline {
			// A crashed server serves nothing; its share of the demand
			// is lost (requests fail over outside the rack).
			r.servers[ref.Server].CPU().SetUtil(ref.Core, 0)
			continue
		}
		f := r.servers[ref.Server].CPU().Core(ref.Core).Freq
		if f > 0 {
			u *= fmax / f
		}
		r.servers[ref.Server].CPU().SetUtil(ref.Core, u)
	}
}

// SetCoreFreq is the rack's single DVFS actuation path: every frequency
// write — SprintCon's MPC moves and the baselines' theta walks alike — goes
// through it, so injected actuator faults (stuck, lagging) and server
// crashes affect all policies. It returns the frequency actually applied,
// which the caller can compare against the command to detect a stuck
// actuator.
func (r *Rack) SetCoreFreq(ref CoreRef, f float64) float64 {
	if ref.Server < 0 || ref.Server >= len(r.servers) {
		return 0
	}
	st := r.faults[ref.Server]
	cur := r.servers[ref.Server].CPU().Core(ref.Core).Freq
	if st.Offline || st.Stuck {
		return cur
	}
	if st.LagFrac > 0 && st.LagFrac < 1 {
		f = cur + st.LagFrac*(f-cur)
	}
	return r.servers[ref.Server].CPU().SetFreq(ref.Core, f)
}

// SetInteractiveFreq sets every interactive core to frequency f (the
// SprintCon policy keeps this at peak during sprints; SGCT baselines vary it).
func (r *Rack) SetInteractiveFreq(f float64) {
	for _, ref := range r.inter {
		r.SetCoreFreq(ref, f)
	}
}

// SetBatchFreqsInto applies a frequency per batch core in BatchCores()
// order, quantized to the P-state table, and writes the applied values
// (GHz) into the caller-owned applied slice (returned), for allocation-free
// control periods. applied must have the same length as freqs and may
// alias it.
func (r *Rack) SetBatchFreqsInto(freqs, applied []float64) ([]float64, error) {
	if len(freqs) != len(r.batch) {
		return nil, fmt.Errorf("rack: got %d frequencies for %d batch cores", len(freqs), len(r.batch))
	}
	if len(applied) != len(freqs) {
		return nil, fmt.Errorf("rack: applied buffer length %d for %d batch cores", len(applied), len(r.batch))
	}
	for i, ref := range r.batch {
		applied[i] = r.SetCoreFreq(ref, freqs[i])
	}
	return applied, nil
}

// BatchFreqs returns the current frequency of every batch core.
func (r *Rack) BatchFreqs() []float64 {
	out := make([]float64, len(r.batch))
	for i, ref := range r.batch {
		out[i] = r.servers[ref.Server].CPU().Core(ref.Core).Freq
	}
	return out
}

// AdvanceBatch executes every bound job for dt seconds at its core's
// current frequency and refreshes the batch cores' utilizations from their
// workload specs (idle if unbound or between work).
func (r *Rack) AdvanceBatch(dt, now float64) {
	fmax := r.cfg.ServerParams.PStates.Max()
	for i, ref := range r.batch {
		j := r.jobSeq[i]
		if j == nil || r.faults[ref.Server].Offline {
			// No job, or a crashed server: no work executes this tick.
			r.servers[ref.Server].CPU().SetUtil(ref.Core, 0)
			continue
		}
		f := r.servers[ref.Server].CPU().Freqs()[ref.Core]
		j.Advance(f, fmax, dt, now)
		r.servers[ref.Server].CPU().SetUtil(ref.Core, j.CurrentUtil())
	}
}

// AdvanceBatchTicks executes the n consecutive AdvanceBatch ticks of size dt
// at times float64(step0+k)·dt, job-major: each job runs its n ticks
// back to back before the next job. Because jobs never interact and the
// core frequencies are untouched, the end state is bit-identical to n
// interleaved AdvanceBatch calls — this is the event engine's quiescent-
// span replay kernel, reduced to the job progress arithmetic alone.
func (r *Rack) AdvanceBatchTicks(dt float64, step0, n int) {
	fmax := r.cfg.ServerParams.PStates.Max()
	for i, ref := range r.batch {
		j := r.jobSeq[i]
		if j == nil || r.faults[ref.Server].Offline {
			r.servers[ref.Server].CPU().SetUtil(ref.Core, 0)
			continue
		}
		f := r.servers[ref.Server].CPU().Freqs()[ref.Core]
		j.AdvanceTicks(f, fmax, dt, step0, n)
		r.servers[ref.Server].CPU().SetUtil(ref.Core, j.CurrentUtil())
	}
}

// BatchStableTicks returns a conservative number of upcoming ticks of size
// dt over which no batch core's reported utilization can change at the
// current frequencies: the minimum of the bound jobs' phase-stability
// horizons. Single-phase jobs (constant utilization across re-execution
// wraps) impose no bound. The result is capped at maxTicks.
func (r *Rack) BatchStableTicks(dt float64, maxTicks int) int {
	fmax := r.cfg.ServerParams.PStates.Max()
	min := maxTicks
	for i, ref := range r.batch {
		j := r.jobSeq[i]
		if j == nil || r.faults[ref.Server].Offline {
			continue
		}
		f := r.servers[ref.Server].CPU().Freqs()[ref.Core]
		if n := j.StableTicks(f, fmax, dt); n < min {
			min = n
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// AllBatchJobsCompleted reports whether every bound batch job has finished
// at least once. Completed jobs have time-independent control weights
// (RWeight is the constant re-execution urgency), which is one of the event
// engine's eligibility conditions for closing a quiescent span analytically.
func (r *Rack) AllBatchJobsCompleted() bool {
	for _, j := range r.jobSeq {
		if j == nil {
			continue
		}
		if !j.Completed() {
			return false
		}
	}
	return true
}

// --- Power monitoring ------------------------------------------------------

// TruePower returns the exact rack power (measurement model, no monitor
// noise). Crashed servers draw nothing.
func (r *Rack) TruePower() float64 {
	var p float64
	for i, s := range r.servers {
		if r.faults[i].Offline {
			continue
		}
		p += s.Power(r.env)
	}
	return p
}

// MeasuredPower returns the rack power monitor's reading: true power with
// multiplicative Gaussian error (paper: p_total "can be physically measured
// by a power monitor" — real monitors are a fraction of a percent off).
func (r *Rack) MeasuredPower() float64 {
	return r.Measure(r.TruePower())
}

// Measure applies the power monitor's multiplicative error to an
// already-computed true rack power. Callers that need both the true and the
// measured value in one tick use this to evaluate the measurement model
// once instead of twice; Measure(TruePower()) ≡ MeasuredPower().
func (r *Rack) Measure(trueW float64) float64 {
	if r.cfg.MonitorNoiseStd > 0 {
		trueW *= 1 + r.rng.NormFloat64()*r.cfg.MonitorNoiseStd
		r.normDraws++
	}
	return trueW
}

// --- Design-model estimators (paper Eq. 5–6) --------------------------------

// EstimateInteractivePower evaluates Eq. (5), p_inter = K'·U + C', from the
// per-core utilization monitors. It is exact only when interactive cores run
// at peak frequency and carries model error otherwise — exactly the paper's
// assumption.
func (r *Rack) EstimateInteractivePower() float64 {
	co := r.cfg.ServerParams.InteractiveCoeffs()
	var p float64
	for _, ref := range r.inter {
		if r.faults[ref.Server].Offline {
			// A dead server's heartbeat loss is visible to the
			// controller; its cores are excluded from the estimate so
			// Eq. (6)'s subtraction stays consistent with the monitor.
			continue
		}
		u := r.servers[ref.Server].CPU().Core(ref.Core).Util
		p += co.KWPerGHz*u + co.CIdleShareW
	}
	return p
}

// EstimateIdlePower returns the design model's estimate of the power of
// unassigned (idle-class) cores: their idle share only.
func (r *Rack) EstimateIdlePower() float64 {
	perCore := r.cfg.ServerParams.IdleW / float64(r.cfg.ServerParams.Cores)
	idlePerServer := r.cfg.ServerParams.Cores - r.cfg.InteractiveCoresPerServer - r.cfg.BatchCoresPerServer
	return perCore * float64(idlePerServer*r.cfg.NumServers)
}

// BatchFeedback evaluates Eq. (6): the feedback power of batch processing,
// p_fb = p_total − p_inter − p_idle, from a total-power measurement. This is
// the controller's only view of batch power on shared servers.
func (r *Rack) BatchFeedback(measuredTotal float64) float64 {
	fb := measuredTotal - r.EstimateInteractivePower() - r.EstimateIdlePower()
	return math.Max(0, fb)
}

// RWeights returns the paper's per-batch-core control-penalty weights
// R_{i,j} (dimensionless) at time now, in BatchCores() order (1 for unbound
// cores).
func (r *Rack) RWeights(now float64) []float64 {
	return r.RWeightsInto(make([]float64, len(r.batch)), now)
}

// RWeightsInto is RWeights writing into the preallocated dst (returned),
// for allocation-free control periods. dst must have one element per batch
// core.
func (r *Rack) RWeightsInto(dst []float64, now float64) []float64 {
	if len(dst) != len(r.batch) {
		panic(fmt.Sprintf("rack: RWeightsInto dst length %d for %d batch cores", len(dst), len(r.batch)))
	}
	for i := range r.batch {
		if j := r.jobSeq[i]; j != nil {
			dst[i] = j.RWeight(now)
		} else {
			dst[i] = 1
		}
	}
	return dst
}

// MeanBatchFreqNorm returns the batch cores' mean frequency normalized to
// peak (the paper's Fig. 7 metric).
func (r *Rack) MeanBatchFreqNorm() float64 {
	if len(r.batch) == 0 {
		return 0
	}
	var sum float64
	for _, ref := range r.batch {
		if r.faults[ref.Server].Offline {
			continue // a dark core executes at frequency 0
		}
		sum += r.servers[ref.Server].CPU().Freqs()[ref.Core]
	}
	return sum / float64(len(r.batch)) / r.cfg.ServerParams.PStates.Max()
}

// MeanInteractiveFreqNorm returns the interactive cores' mean normalized
// frequency.
func (r *Rack) MeanInteractiveFreqNorm() float64 {
	if len(r.inter) == 0 {
		return 0
	}
	var sum float64
	for _, ref := range r.inter {
		if r.faults[ref.Server].Offline {
			continue
		}
		sum += r.servers[ref.Server].CPU().Freqs()[ref.Core]
	}
	return sum / float64(len(r.inter)) / r.cfg.ServerParams.PStates.Max()
}
