package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// Job names one simulation of a parameter sweep.
type Job struct {
	// Key identifies the job in the result map (e.g. "SprintCon@540s").
	Key string
	// Scenario and Policy define the run. Policies must not be shared
	// between jobs — they carry per-run state.
	Scenario Scenario
	Policy   Policy
	// Opts carries per-job run options (engine selection, series stride,
	// checkpointing, sinks). The zero value is the default tick engine.
	Opts RunOptions
}

// RunMany is RunManyOrdered with results keyed by Job.Key, for sweeps whose
// jobs are named rather than positional. Keys must be non-empty and
// unique. Each simulation is fully independent — its own rack, breaker,
// UPS and trace — so the sweep parallelizes embarrassingly; this is what
// makes the full experiment suite fast enough to run in CI. The first
// error by job order aborts the sweep.
func RunMany(jobs []Job) (map[string]*Result, error) {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Key == "" {
			return nil, fmt.Errorf("sim: job with empty key")
		}
		if seen[j.Key] {
			return nil, fmt.Errorf("sim: duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
	}
	res, err := RunManyOrdered(jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Result, len(jobs))
	for i, j := range jobs {
		out[j.Key] = res[i]
	}
	return out, nil
}

// RunManyOrdered executes the jobs concurrently (bounded by GOMAXPROCS) and
// returns results in job order, so callers that depend on positional
// identity — cluster racks, sweep rows — get deterministic output
// regardless of scheduling. Each simulation is fully independent and every
// run is seeded, so the results are bit-identical to running the same jobs
// serially. The first error (by job order) aborts the sweep.
func RunManyOrdered(jobs []Job) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	out := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = runJob(j)
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			name := jobs[i].Key
			if name == "" {
				name = fmt.Sprintf("#%d", i)
			}
			return nil, fmt.Errorf("sim: job %s: %w", name, err)
		}
	}
	return out, nil
}

// runJob executes one job with panic isolation: a panic on the worker
// goroutine becomes a *PanicError instead of crashing the pool.
func runJob(j Job) (res *Result, err error) {
	defer RecoverPanic(&err)
	return RunWith(j.Scenario, j.Policy, j.Opts)
}
