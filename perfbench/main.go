// Command perfbench is the repository benchmark: it runs one named workload
// for a fixed wall time, checks the workload's outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Workloads (README.md explains each choice):
//
//	rack_sprint     the paper's 900 s sprint on many seeded racks, sim.RunManyOrdered
//	fleet_diurnal   day-long no-sprint capping racks on hier.RunSweep, event engine
//	service_linked  nproc clients submitting linked building runs to a sprintd process
//
// Usage (perfbench/run.sh builds the binaries first):
//
//	perfbench -sprintd path/to/sprintd -workdir dir --workload rack_sprint --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sprintd  string // sprintd binary (service_linked only)
	workdir  string // scratch root for sprintd state directories
	size     size
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's outcome: the operation counts, the metrics and the
// output checks. An operation is a rack for the in-process workloads and a
// run for the service.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // failed checks, printed to standard error
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

// set records a metric under its declared unit.
func (r *report) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// info prints a labelled diagnostic line to standard error.
func info(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// run dispatches the configured workload.
func run(cfg config) (*report, error) {
	var (
		rep *report
		err error
	)
	switch cfg.workload {
	case "rack_sprint":
		rep, err = runRackSprint(cfg)
	case "fleet_diurnal":
		rep, err = runFleet(cfg)
	case "service_linked":
		rep, err = runService(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want rack_sprint, fleet_diurnal or service_linked)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := rep.Metrics[d.name]; !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
	}
	for name := range rep.Metrics {
		if !declaredIn(want, name) {
			return nil, fmt.Errorf("workload %s printed %s outside its metric set", cfg.workload, name)
		}
	}
	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured wall time per run (s)")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&cfg.sprintd, "sprintd", "", "sprintd binary (service_linked)")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for sprintd state (service_linked)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(errors.New("-trace must be 0 or 1"))
	}
	if cfg.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	cfg.trace = trace == 1
	cfg.size = fullSize

	info("workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	for _, p := range rep.problems {
		info("CHECK FAILED: %s", p)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// ---- statistics ----

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// nearestRank returns the p-quantile (0 < p ≤ 1) of sorted xs by the
// nearest-rank rule.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail returns the highest percentile with at least ten samples strictly
// beyond it (the 11th-largest sample), that percentile and the sample
// count. With ten samples or fewer it returns the maximum (p = 1).
func tail(xs []float64) (v, p float64, n int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n = len(s)
	if n == 0 {
		return 0, 1, 0
	}
	if n <= 10 {
		return s[n-1], 1, n
	}
	return s[n-11], float64(n-10) / float64(n), n
}

// span is one operation's start and end, in seconds from the start of the
// measured window.
type span struct{ start, end float64 }

// rateSlices is how many equal slices of the measured window the
// throughput is the median over.
const rateSlices = 5

// sliceRate returns the median over rateSlices equal slices of [0,
// elapsed] of the work completed per second in each slice, each operation
// contributing work spread evenly over its own span. The median keeps a
// burst of contention from the rest of the host out of the figure.
func sliceRate(ops []span, work, elapsed float64) float64 {
	w := elapsed / rateSlices
	rates := make([]float64, rateSlices)
	for i := range rates {
		lo, hi := float64(i)*w, float64(i+1)*w
		for _, o := range ops {
			if d := o.end - o.start; d > 0 {
				overlap := math.Min(hi, o.end) - math.Max(lo, o.start)
				if overlap > 0 {
					rates[i] += work * overlap / d
				}
			}
		}
		rates[i] /= w
	}
	info("rack_s_per_wall_s by slice: %.0f", rates)
	return median(rates)
}

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func(rep int) (float64, error)) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := f(i)
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// peakRSSMB returns this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
