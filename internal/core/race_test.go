//go:build race

package core

// The race runtime drops sync.Pool entries at random, so the number of
// heap allocations a run makes (fmt's printer pool in scenario set-up, for
// one) is not repeatable under -race.
func init() { raceEnabled = true }
