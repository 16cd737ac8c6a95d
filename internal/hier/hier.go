package hier

import (
	"errors"
	"fmt"
	"math"

	"sprintcon/internal/alloc"
	"sprintcon/internal/checkpoint"
	"sprintcon/internal/core"
	"sprintcon/internal/faults"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// RowConfig describes one row feeder and the racks behind it.
type RowConfig struct {
	// Racks is the number of racks on the row feeder, in [1, cluster.MaxRacks].
	Racks int
	// RatingW is the row breaker rating (W). Zero auto-provisions the row
	// at its minimum packing, racks·rated + ⌈racks/slots⌉·bonus — the
	// smallest budget that gives every rack an overload slot. A non-zero
	// rating caps how much building headroom the row can absorb, and must
	// be at least the minimum packing.
	RatingW float64
	// Faults, when non-nil, replaces the shared scenario's fault plan for
	// this row only — the hook partition experiments use to fail one
	// subtree's network while the rest of the building stays healthy.
	Faults *faults.Plan
}

// Config describes the building: the shared per-rack scenario and policy,
// the row topology, and the building feeder rating above it.
type Config struct {
	// BuildingBudgetW is the building feeder rating (W). Zero
	// auto-provisions at the sum of the row ratings (after the rows' own
	// auto-provisioning), which funds every row to its rating exactly.
	BuildingBudgetW float64
	// Rows lists the row feeders, top-to-bottom order is the allocation
	// round-robin order.
	Rows []RowConfig
	// Scenario is the per-rack scenario. Rack seeds (interactive, rack,
	// faults) are offset by each rack's global index across the building.
	Scenario sim.Scenario
	// SprintCon tunes the per-rack policy (shared by every rack).
	SprintCon core.Config
	// Seed drives the per-row link transports' fault randomness; row r
	// uses Seed+r so rows draw independent loss/delay/duplication series.
	Seed int64
	// Serial runs rows, and the racks within them, one at a time.
	// Results are bit-identical either way.
	Serial bool
	// Metrics, when non-nil, receives the hierarchy instruments
	// (per-level budgets, exceedance fractions, shadow trips, degraded
	// seconds) after a run completes.
	Metrics *telemetry.Registry
	// Obs, when non-nil, holds one observability plane per row (index =
	// row id); RunLinked attaches row r's planes to row r's coordinator
	// and racks. Must be empty or have one entry per row.
	Obs []*obs.Cluster
	// RackOptions, when non-nil, supplies per-rack run options for
	// RunLinked and RunSweep — the hook sprintd uses to attach
	// decision-trace sinks, and sweeps use to select the event engine.
	// RunLinked sets its rows up concurrently, so the function must be
	// safe for concurrent use.
	RackOptions func(row, rack int) sim.RunOptions
	// OnRowTick, when non-nil, is called after every lock-step tick of
	// every row with that row's id, step index, simulated time and feeder
	// aggregate draw. Rows run concurrently, so the callback must be safe
	// for concurrent use. It must return quickly: the row waits on it.
	OnRowTick func(row, step int, nowS, aggregateW float64)
	// OnRowDone, when non-nil, is called after each row's sweep shard
	// completes (RunSweep only; shards finish in row order).
	OnRowDone func(row int)
	// Stop, when non-nil, cancels the run once the channel closes. Linked
	// rows poll it between lock-step ticks, sweep racks between sim ticks,
	// so cancellation lands within one tick of simulated progress; the
	// canceled run returns an error satisfying errors.Is(err,
	// sim.ErrCanceled).
	Stop <-chan struct{}
	// CheckpointEveryS, when positive together with OnRowCheckpoint,
	// captures coherent per-row snapshots during RunLinked: every rack of
	// a row exported at the same tick boundary, every CheckpointEveryS
	// simulated seconds, plus a final set when the run cancels. Rows run
	// concurrently, so OnRowCheckpoint must be safe for concurrent use
	// across different row ids.
	CheckpointEveryS float64
	OnRowCheckpoint  func(row int, snaps []*checkpoint.Snapshot)
	// Resume, when non-nil, resumes a linked run from journaled row
	// snapshots: index = row id, each entry a coherent per-rack set as
	// OnRowCheckpoint received it (nil entries start their row from step
	// 0). Rows may resume from different steps — each row's snapshots are
	// captured on its own lock-step cadence — so the building-level series
	// and statistics cover the common window ⟦max(row starts), end⟧ (see
	// Result.ResumeStep).
	Resume [][]*checkpoint.Snapshot
}

// DefaultConfig returns the acceptance topology: four rows of sixteen
// paper racks each, every level auto-provisioned at its minimum packing.
func DefaultConfig() Config {
	return Config{
		Rows:      []RowConfig{{Racks: 16}, {Racks: 16}, {Racks: 16}, {Racks: 16}},
		Scenario:  sim.DefaultScenario(),
		SprintCon: core.DefaultConfig(),
	}
}

// RowAllocation is one row's resolved share of the building budget.
type RowAllocation struct {
	// Racks is the row size; StartRack its first rack's global index.
	Racks     int
	StartRack int
	// RatingW is the row breaker rating (auto-provisioned when the
	// configuration left it zero); BudgetW the granted budget,
	// ≤ min(RatingW, the row's share of the building budget).
	RatingW float64
	BudgetW float64
	// SlotCapacity is K, the number of concurrent overloads BudgetW
	// funds: BudgetW = Racks·rated + K·bonus.
	SlotCapacity int
}

// Allocation is the resolved budget waterfall: building rating at the
// top, one granted budget per row below it.
type Allocation struct {
	// BuildingBudgetW is the building feeder rating (auto-provisioned
	// when the configuration left it zero).
	BuildingBudgetW float64
	// RatedW is one rack's breaker rating; BonusW its overload surcharge
	// rated·(degree−1) — the allocation quantum.
	RatedW float64
	BonusW float64
	// NumSlots is the overload windows per cycle, ⌊cycle/overload⌋.
	NumSlots int
	// TotalRacks counts racks across all rows.
	TotalRacks int
	// Rows holds the per-row grants, index = row id.
	Rows []RowAllocation
}

// TotalGrantedW sums the row budgets — by construction at most
// BuildingBudgetW.
func (a Allocation) TotalGrantedW() float64 {
	var s float64
	for _, r := range a.Rows {
		s += r.BudgetW
	}
	return s
}

// allocConfig resolves the per-rack allocator configuration (the override,
// or the default for the scenario's breaker).
func (c Config) allocConfig() alloc.Config {
	if c.SprintCon.AllocOverride != nil {
		return *c.SprintCon.AllocOverride
	}
	return alloc.DefaultConfig(c.Scenario.Breaker.RatedPower, c.Scenario.Breaker.TripBudget())
}

// Validate reports structural errors in the configuration: a building
// budget that cannot fund every row's minimum packing, and any error the
// per-row linked-cluster configurations would report (scenario, fault
// plan, link protocol, slot packing).
func (c Config) Validate() error {
	a, err := Allocate(c)
	if err != nil {
		return err
	}
	for i := range a.Rows {
		if err := rowClusterConfig(c, a, i).Validate(); err != nil {
			return fmt.Errorf("hier: row %d: %w", i, err)
		}
	}
	return nil
}

// Allocate resolves the tighten-only budget waterfall: every row gets its
// minimum packing ⌈racks/slots⌉ overload bonuses, then remaining building
// headroom is distributed round-robin one bonus at a time up to each
// row's breaker rating. The returned allocation satisfies, at every
// level, sum(child budgets) ≤ parent budget.
func Allocate(c Config) (Allocation, error) {
	if len(c.Rows) == 0 {
		return Allocation{}, errors.New("hier: at least one row is required")
	}
	if math.IsNaN(c.BuildingBudgetW) || math.IsInf(c.BuildingBudgetW, 0) || c.BuildingBudgetW < 0 {
		return Allocation{}, fmt.Errorf("hier: BuildingBudgetW is %g; the building rating must be finite and non-negative", c.BuildingBudgetW)
	}
	acfg := c.allocConfig()
	if err := acfg.Validate(); err != nil {
		return Allocation{}, fmt.Errorf("hier: allocator config: %w", err)
	}
	rated := c.Scenario.Breaker.RatedPower
	bonus := rated * (acfg.OverloadDegree - 1)
	slots := int(math.Floor((acfg.OverloadS+acfg.RecoveryS)/acfg.OverloadS + 1e-9))

	a := Allocation{
		BuildingBudgetW: c.BuildingBudgetW,
		RatedW:          rated,
		BonusW:          bonus,
		NumSlots:        slots,
		Rows:            make([]RowAllocation, len(c.Rows)),
	}
	kmin := make([]int, len(c.Rows))
	kmax := make([]int, len(c.Rows))
	for i, row := range c.Rows {
		if row.Racks <= 0 {
			return Allocation{}, fmt.Errorf("hier: row %d has %d racks; every row needs at least one", i, row.Racks)
		}
		if math.IsNaN(row.RatingW) || math.IsInf(row.RatingW, 0) || row.RatingW < 0 {
			return Allocation{}, fmt.Errorf("hier: row %d rating is %g; row ratings must be finite and non-negative", i, row.RatingW)
		}
		kmin[i] = (row.Racks + slots - 1) / slots
		base := float64(row.Racks) * rated
		rating := row.RatingW
		if rating == 0 {
			rating = base + float64(kmin[i])*bonus
		}
		// Floor with a tolerance: a rating assembled as base + K·bonus can
		// land a hair under the exact product in floats.
		kmax[i] = int((rating-base)/bonus + 1e-9)
		if kmax[i] < kmin[i] {
			return Allocation{}, fmt.Errorf(
				"hier: row %d rating %g W funds %d concurrent overloads but its %d racks need %d (⌈%d/%d slots⌉) for a full packing",
				i, rating, kmax[i], row.Racks, kmin[i], row.Racks, slots)
		}
		a.Rows[i] = RowAllocation{Racks: row.Racks, StartRack: a.TotalRacks, RatingW: rating}
		a.TotalRacks += row.Racks
	}

	building := c.BuildingBudgetW
	if building == 0 {
		for _, r := range a.Rows {
			building += r.RatingW
		}
		a.BuildingBudgetW = building
	}

	// Grant the minimum packing everywhere, then hand out the remaining
	// headroom round-robin in whole bonuses, capped by each row's rating.
	baseW := float64(a.TotalRacks) * rated
	spare := int((building-baseW)/bonus + 1e-9)
	for i := range a.Rows {
		spare -= kmin[i]
	}
	if building < baseW || spare < 0 {
		return Allocation{}, fmt.Errorf(
			"hier: building budget %g W cannot fund the minimum packing %g W (%d racks at %g W rated plus %g W per overload slot)",
			building, baseW+float64(sum(kmin))*bonus, a.TotalRacks, rated, bonus)
	}
	k := append([]int(nil), kmin...)
	for spare > 0 {
		granted := false
		for i := range k {
			if spare == 0 {
				break
			}
			if k[i] < kmax[i] {
				k[i]++
				spare--
				granted = true
			}
		}
		if !granted {
			break // every row is at its rating; leave the rest unspent
		}
	}
	for i := range a.Rows {
		a.Rows[i].SlotCapacity = k[i]
		a.Rows[i].BudgetW = float64(a.Rows[i].Racks)*rated + float64(k[i])*bonus
	}
	return a, nil
}

func sum(xs []int) int {
	var s int
	for _, x := range xs {
		s += x
	}
	return s
}
