// Package qos models the latency consequences of frequency decisions on
// interactive workloads. The paper evaluates interactive performance by
// average frequency (Fig. 7); this package extends that with the standard
// M/M/1 response-time lens so the cost of throttling interactive cores
// (as the SGCT baselines do) is visible in milliseconds and SLO terms.
//
// Model: one interactive core serves a request stream whose offered load
// is `demand` (fraction of the core's capacity at peak frequency). At
// normalized frequency f̂ the service rate scales by f̂, so utilization is
// ρ = demand/f̂ and the M/M/1 mean response time is
//
//	T = T_service/(1 − ρ),  T_service = baseMs/f̂.
//
// ρ ≥ 1 means the queue is unstable: the request backlog grows without
// bound for as long as the overload lasts, which we report as saturation
// with a capped latency.
package qos

import (
	"errors"

	"sprintcon/internal/stats"
)

// Config parameterizes the latency model.
type Config struct {
	// BaseServiceMs is the mean service time at peak frequency.
	BaseServiceMs float64
	// SLOMs is the response-time objective for SLO accounting.
	SLOMs float64
	// SaturationCapMs is the latency reported for unstable (ρ ≥ 1)
	// periods and outages.
	SaturationCapMs float64
}

// DefaultConfig returns a web-serving flavor: 20 ms mean service time at
// peak, a 200 ms SLO, and a 1 s cap for saturated periods.
func DefaultConfig() Config {
	return Config{BaseServiceMs: 20, SLOMs: 200, SaturationCapMs: 1000}
}

// Validate reports structural errors in the configuration.
func (c Config) Validate() error {
	switch {
	case c.BaseServiceMs <= 0:
		return errors.New("qos: BaseServiceMs must be positive")
	case c.SLOMs <= c.BaseServiceMs:
		return errors.New("qos: SLOMs must exceed BaseServiceMs")
	case c.SaturationCapMs < c.SLOMs:
		return errors.New("qos: SaturationCapMs must be at least SLOMs")
	}
	return nil
}

// ResponseTime returns the mean response time in milliseconds for offered
// load demand (fraction of peak capacity) served at normalized frequency
// freqNorm ∈ (0, 1], and whether the core is saturated. freqNorm ≤ 0 (an
// outage) reports the cap.
func (c Config) ResponseTime(demand, freqNorm float64) (ms float64, saturated bool) {
	if freqNorm <= 0 {
		return c.SaturationCapMs, true
	}
	if demand <= 0 {
		return c.BaseServiceMs / freqNorm, false
	}
	rho := demand / freqNorm
	if rho >= 1 {
		return c.SaturationCapMs, true
	}
	t := c.BaseServiceMs / freqNorm / (1 - rho)
	if t > c.SaturationCapMs {
		return c.SaturationCapMs, true
	}
	return t, false
}

// Summary aggregates a latency series.
type Summary struct {
	MeanMs        float64
	P99Ms         float64
	SLOViolFrac   float64 // fraction of samples above the SLO
	SaturatedFrac float64 // fraction of samples with an unstable queue
}

// Evaluate applies the model over parallel demand and normalized-frequency
// series (one sample per tick) and summarizes. Series must have equal,
// non-zero length.
func (c Config) Evaluate(demand, freqNorm []float64) (Summary, error) {
	if err := c.Validate(); err != nil {
		return Summary{}, err
	}
	if len(demand) != len(freqNorm) || len(demand) == 0 {
		return Summary{}, errors.New("qos: need equal non-empty series")
	}
	lat := make([]float64, len(demand))
	var sat, viol int
	for i := range demand {
		ms, s := c.ResponseTime(demand[i], freqNorm[i])
		lat[i] = ms
		if s {
			sat++
		}
		if ms > c.SLOMs {
			viol++
		}
	}
	p99, err := stats.Percentile(lat, 0.99)
	if err != nil {
		return Summary{}, err
	}
	n := float64(len(lat))
	return Summary{
		MeanMs:        stats.Mean(lat),
		P99Ms:         p99,
		SLOViolFrac:   float64(viol) / n,
		SaturatedFrac: float64(sat) / n,
	}, nil
}
