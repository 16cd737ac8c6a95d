package obs

import (
	"math"
	"sort"

	"sprintcon/internal/telemetry"
)

// WindowStat is a sliding-window aggregate over the last `window` samples:
// a ring buffer for eviction plus a fixed-bucket histogram for approximate
// quantiles. Everything is preallocated at construction, so Push is
// allocation-free — the property the tick path requires — and quantiles
// are deterministic (bucket upper bounds, never interpolated positions).
type WindowStat struct {
	buf    []float64 // ring storage, len = capacity
	head   int       // next write position
	n      int       // live samples, ≤ len(buf)
	bounds []float64 // ascending bucket upper bounds; implicit +Inf follows
	counts []int     // len(bounds)+1, bucket occupancy of the live window
	sum    float64
}

// NewWindowStat returns a window of the given sample capacity with the
// given ascending bucket upper bounds (copied).
func NewWindowStat(window int, bounds []float64) *WindowStat {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &WindowStat{
		buf:    make([]float64, window),
		bounds: b,
		counts: make([]int, len(b)+1),
	}
}

// bucket returns the histogram bucket index for v.
func (w *WindowStat) bucket(v float64) int {
	return sort.SearchFloat64s(w.bounds, v)
}

// Push adds a sample, evicting the oldest when the window is full. NaN
// samples are dropped (a gauge read before its source exists — e.g. lease
// age with no lease — simply does not occupy the window).
func (w *WindowStat) Push(v float64) {
	if w == nil || math.IsNaN(v) {
		return
	}
	if w.n == len(w.buf) {
		old := w.buf[w.head]
		w.counts[w.bucket(old)]--
		w.sum -= old
		w.n--
	}
	w.buf[w.head] = v
	w.head = (w.head + 1) % len(w.buf)
	w.counts[w.bucket(v)]++
	w.sum += v
	w.n++
}

// Len returns the live sample count.
func (w *WindowStat) Len() int {
	if w == nil {
		return 0
	}
	return w.n
}

// Last returns the most recent sample (NaN when empty).
func (w *WindowStat) Last() float64 {
	if w == nil || w.n == 0 {
		return math.NaN()
	}
	i := w.head - 1
	if i < 0 {
		i += len(w.buf)
	}
	return w.buf[i]
}

// Oldest returns the oldest live sample (NaN when empty).
func (w *WindowStat) Oldest() float64 {
	if w == nil || w.n == 0 {
		return math.NaN()
	}
	i := w.head - w.n
	if i < 0 {
		i += len(w.buf)
	}
	return w.buf[i]
}

// Mean returns the window mean (NaN when empty).
func (w *WindowStat) Mean() float64 {
	if w == nil || w.n == 0 {
		return math.NaN()
	}
	return w.sum / float64(w.n)
}

// Slope returns the per-sample trend (last − oldest)/(n−1), i.e. the mean
// increment across the window; NaN with fewer than two samples. Multiplied
// by the sampling period it is the quantity's rate of change.
func (w *WindowStat) Slope() float64 {
	if w == nil || w.n < 2 {
		return math.NaN()
	}
	return (w.Last() - w.Oldest()) / float64(w.n-1)
}

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of the
// bucket holding the rank-⌈q·n⌉ sample — a deterministic overestimate of at
// most one bucket width. NaN when the window is empty; +Inf when the rank
// lands in the overflow bucket.
func (w *WindowStat) Quantile(q float64) float64 {
	if w == nil || w.n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(w.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int
	for i, c := range w.counts {
		cum += c
		if cum >= rank {
			if i < len(w.bounds) {
				return w.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// HealthWindow is the number of tick samples a rack's rollup windows hold:
// at the default 1 s tick, two minutes of history — long enough to cover a
// full overload window's burn, short enough that a health view reflects the
// current regime rather than the whole run.
const HealthWindow = 120

// RackHealth is one rack's streaming rollup set. Windows are preallocated;
// the tick path only pushes samples. The exported quantile gauges (bound
// via Bind) are refreshed by Publish on the control-period cadence, keeping
// the per-tick cost to the ring updates alone.
type RackHealth struct {
	TripMargin *WindowStat // 1 − breaker thermal fraction
	SoC        *WindowStat // observed UPS state of charge
	LeaseAge   *WindowStat // seconds since the live lease was issued
	Occupancy  *WindowStat // 1 when the rack's CB budget exceeds rated (overload slot held)
	Sweeps     *WindowStat // QP solver ψ evaluations per control period

	gauges []gaugeBinding
}

// gaugeBinding maps one (window, quantile) pair to a registry gauge.
type gaugeBinding struct {
	w *WindowStat
	q float64 // quantile; <0 selects the mean
	g *telemetry.Gauge
}

// NewRackHealth returns the rollup set with the standard windows/buckets.
func NewRackHealth() *RackHealth {
	unit := telemetry.LinearBuckets(0.02, 0.02, 50) // [0,1] quantities, 0.02 resolution
	return &RackHealth{
		TripMargin: NewWindowStat(HealthWindow, unit),
		SoC:        NewWindowStat(HealthWindow, unit),
		LeaseAge:   NewWindowStat(HealthWindow, telemetry.LinearBuckets(0.5, 0.5, 48)),
		Occupancy:  NewWindowStat(HealthWindow, []float64{0, 1}),
		Sweeps:     NewWindowStat(HealthWindow, []float64{0, 1, 2, 3, 5, 8, 12, 20, 50, 100, 200, 500}),
	}
}

// Bind registers the rollup quantile gauges on reg under the given name
// prefix (e.g. "obs_"). Safe to skip entirely: an unbound health set still
// accumulates and serves snapshots.
func (h *RackHealth) Bind(reg *telemetry.Registry, prefix string) {
	if h == nil || reg == nil {
		return
	}
	add := func(w *WindowStat, name, help string) {
		for _, t := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			g := reg.Gauge(prefix+name+"_"+t.suffix, help+" ("+t.suffix+" over the rollup window)")
			h.gauges = append(h.gauges, gaugeBinding{w: w, q: t.q, g: g})
		}
		g := reg.Gauge(prefix+name+"_mean", help+" (mean over the rollup window)")
		h.gauges = append(h.gauges, gaugeBinding{w: w, q: -1, g: g})
	}
	add(h.TripMargin, "trip_margin", "breaker trip margin 1-theta/budget")
	add(h.SoC, "soc", "observed UPS state of charge")
	add(h.LeaseAge, "lease_age_seconds", "age of the live control lease")
	add(h.Occupancy, "slot_occupancy", "fraction of ticks holding an overload slot")
	add(h.Sweeps, "qp_sweeps", "QP solver ψ evaluations per control period")
}

// Publish refreshes the bound gauges from the current windows.
func (h *RackHealth) Publish() {
	if h == nil {
		return
	}
	for _, b := range h.gauges {
		if b.q < 0 {
			b.g.Set(b.w.Mean())
		} else {
			b.g.Set(b.w.Quantile(b.q))
		}
	}
}

// HealthSnapshot is the JSON health document for one rack, served by the
// enriched status endpoint.
type HealthSnapshot struct {
	Rack          int         `json:"rack"`
	Degraded      bool        `json:"degraded"`
	LeaseAgeS     telemetry.F `json:"lease_age_s"`
	TripMarginP50 telemetry.F `json:"trip_margin_p50"`
	TripMarginP99 telemetry.F `json:"trip_margin_p99"`
	SoCP50        telemetry.F `json:"soc_p50"`
	OccupancyMean telemetry.F `json:"slot_occupancy_mean"`
	SweepsP95     telemetry.F `json:"qp_sweeps_p95"`
	Alerts        int         `json:"alerts"`
	OpenSpans     int         `json:"open_spans"`
}

// snapshot assembles the health document fields owned by the rollups.
func (h *RackHealth) snapshot(rack int) HealthSnapshot {
	return HealthSnapshot{
		Rack:          rack,
		LeaseAgeS:     telemetry.F(h.LeaseAge.Last()),
		TripMarginP50: telemetry.F(h.TripMargin.Quantile(0.50)),
		TripMarginP99: telemetry.F(h.TripMargin.Quantile(0.99)),
		SoCP50:        telemetry.F(h.SoC.Quantile(0.50)),
		OccupancyMean: telemetry.F(h.Occupancy.Mean()),
		SweepsP95:     telemetry.F(h.Sweeps.Quantile(0.95)),
	}
}
