package renaming

import (
	"fmt"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
)

// A terminate(k)-flooding adversary must not force premature termination:
// the n_v/3 relay threshold requires a correct sender behind any
// terminate quorum, and correct senders only speak after two genuinely
// silent rounds. The final sets must agree and contain every correct id.
func TestRenamingUnderTerminateSpoofing(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			mkByz := spec.Each(func(id ids.ID, _ *adversary.Directory) simnet.Process { return adversary.NewTerminateSpoofer(id) })
			nodes, _ := spec.NewFleet(t, seed, 7, 2, bound(9), fresh, mkByz).Run()
			base := nodes[0].FinalSet()
			for _, node := range nodes {
				if !node.FinalSet().Equal(base) {
					t.Fatalf("node %v disagrees on the final set", node.ID())
				}
				for _, other := range nodes {
					if !node.FinalSet().Contains(other.ID()) {
						t.Fatalf("node %v's set misses correct id %v",
							node.ID(), other.ID())
					}
				}
			}
		})
	}
}

// Mixed coalition: one spoofer plus one ghost injector.
func TestRenamingUnderMixedCoalition(t *testing.T) {
	t.Parallel()
	ghosts := []ids.ID{1111, 2222, 3333}
	mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			if i%2 == 0 {
				out[i] = adversary.NewTerminateSpoofer(id)
			} else {
				out[i] = adversary.NewGhostCandidate(id, dir, ghosts)
			}
		}
		return out
	}
	nodes, _ := spec.NewFleet(t, 9, 7, 2, bound(9), fresh, mkByz).Run()
	base := nodes[0].FinalSet()
	for _, node := range nodes {
		if !node.FinalSet().Equal(base) {
			t.Fatalf("node %v disagrees under mixed coalition", node.ID())
		}
	}
	// Names are a compact prefix 1..|S| with no duplicates.
	seen := make(map[int]bool)
	for _, node := range nodes {
		name, ok := node.NewName()
		if !ok || name < 1 || name > base.Len() || seen[name] {
			t.Fatalf("bad name %d (ok=%v)", name, ok)
		}
		seen[name] = true
	}
}
