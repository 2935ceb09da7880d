package ordering

import (
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
)

// churners builds every Byzantine node as a membership churner.
var churners = spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
	return adversary.NewMembershipChurner(id, dir)
})

// A membership-flapping adversary (present/absent to different halves,
// bogus acks) must not break the chain-prefix property among the correct
// founders, and all their events must still be ordered.
func TestOrderingUnderMembershipChurner(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 31, 7, 2, churners)
	for i, node := range nodes {
		node.SubmitEvent(float64(100 + i))
	}
	fl.RunFor(110)
	chain := checkChainPrefix(t, nodes)
	correctEvents := 0
	for _, e := range chain {
		for _, node := range nodes {
			if e.Submitter == node.ID() {
				correctEvents++
			}
		}
	}
	if correctEvents != len(nodes) {
		t.Fatalf("%d correct events ordered, want %d; chain %v",
			correctEvents, len(nodes), chain)
	}
}

// Bogus acks must not derail a correct joiner: the majority rule picks
// the honest round number.
func TestJoinerSurvivesBogusAcks(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 37, 6, 2, churners)
	fl.RunFor(4)
	joinerID := ids.ID(424242)
	joiner := join(t, fl, joinerID)
	fl.RunFor(6)
	founderRound := nodes[0].Round()
	if joiner.Round() != founderRound {
		t.Fatalf("joiner adopted round %d, founders at %d (bogus acks won?)",
			joiner.Round(), founderRound)
	}
	joiner.SubmitEvent(7.25)
	fl.RunFor(90)
	found := false
	for _, e := range nodes[0].Chain() {
		if e.Submitter == joinerID && e.Value == 7.25 {
			found = true
		}
	}
	if !found {
		t.Fatal("joiner's event was not ordered despite honest majority")
	}
}
