package chaos

import (
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// TestEarlyDecideKeepsNoRoundScratch makes internal/spec's retention
// check on the planted-bug twin, whose Step no spec differential runs:
// a fleet of earlyDecide nodes beside split voters, every process
// wrapped in the check.
func TestEarlyDecideKeepsNoRoundScratch(t *testing.T) {
	spec.NewFleet(t, 3, 7, 2, simnet.Config{MaxRounds: 100}, func(i int, id ids.ID) simnet.Process {
		return spec.Checked(t, newEarlyDecide(id, wire.V(float64(i%2))))
	}, spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
		return spec.Checked(t, adversary.NewSplitVoter(id, dir, wire.V(0), wire.V(1)))
	})).RunFor(40)
}
