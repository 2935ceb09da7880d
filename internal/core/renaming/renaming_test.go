package renaming

import (
	"fmt"
	"math/rand"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
)

// fresh builds correct node i of a fleet.
func fresh(_ int, id ids.ID) *Node { return New(id) }

// bound is the network of a run of n nodes: 40 rounds a node and 100 more.
func bound(n int) simnet.Config { return simnet.Config{MaxRounds: 40*n + 100} }

// Fault-free: all correct nodes agree on S (exactly the correct ids) and
// the new names are the compact range 1..g in id order.
func TestRenamingFaultFree(t *testing.T) {
	t.Parallel()
	for _, g := range []int{4, 7, 12} {
		g := g
		t.Run(fmt.Sprintf("g=%d", g), func(t *testing.T) {
			t.Parallel()
			nodes, _ := spec.NewFleet(t, int64(g), g, 0, bound(g), fresh, nil).Run()
			base := nodes[0].FinalSet()
			if base.Len() != g {
				t.Fatalf("final set size %d, want %d", base.Len(), g)
			}
			seen := make(map[int]ids.ID, g)
			for _, node := range nodes {
				if !node.FinalSet().Equal(base) {
					t.Fatalf("node %v disagrees on the final set", node.ID())
				}
				name, ok := node.NewName()
				if !ok {
					t.Fatalf("node %v has no name", node.ID())
				}
				if name < 1 || name > g {
					t.Fatalf("name %d out of compact range 1..%d", name, g)
				}
				if prev, dup := seen[name]; dup {
					t.Fatalf("name %d assigned to both %v and %v", name, prev, node.ID())
				}
				seen[name] = node.ID()
			}
			// Names follow id order.
			for _, node := range nodes {
				rank, _ := base.Rank(node.ID())
				if name, _ := node.NewName(); name != rank+1 {
					t.Fatalf("node %v name %d, want rank+1 = %d", node.ID(), name, rank+1)
				}
			}
		})
	}
}

// With silent Byzantine nodes the correct nodes still agree; the final
// set is exactly the correct ids (silent nodes never announce).
func TestRenamingWithSilentByzantine(t *testing.T) {
	t.Parallel()
	nodes, _ := spec.NewFleet(t, 5, 7, 2, bound(9), fresh, spec.Silent).Run()
	base := nodes[0].FinalSet()
	if base.Len() != 7 {
		t.Fatalf("final set size %d, want 7", base.Len())
	}
	for _, node := range nodes {
		if !node.FinalSet().Equal(base) {
			t.Fatalf("node %v disagrees", node.ID())
		}
	}
}

// Ghost candidates paced one per round stretch the run but cannot cause
// disagreement, and the rounds stay within the O(f) bound.
func TestRenamingUnderGhostInjection(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			g, f := 7, 2
			ghosts := ids.Sparse(rand.New(rand.NewSource(seed+50)), 8)
			mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
				return adversary.NewGhostCandidate(id, dir, ghosts)
			})
			nodes, rounds := spec.NewFleet(t, seed, g, f, bound(g+f), fresh, mkByz).Run()
			base := nodes[0].FinalSet()
			for _, node := range nodes {
				if !node.FinalSet().Equal(base) {
					t.Fatalf("node %v disagrees on the final set", node.ID())
				}
				// All correct ids must be present; names stay
				// consistent across nodes for every member.
				for _, other := range nodes {
					if !base.Contains(other.ID()) {
						t.Fatalf("final set misses correct id %v", other.ID())
					}
				}
			}
			// Termination rounds within the paper's O(f) analysis
			// (4f+3 loop rounds plus init and quorum rounds).
			if limit := 4*f + 3 + 2 + 4; rounds > limit {
				t.Fatalf("terminated in %d rounds, want ≤ %d", rounds, limit)
			}
			// Names must be consistent across nodes for every member
			// of the agreed set.
			for _, member := range base.Members() {
				name0, ok0 := nodes[0].NameOf(member)
				for _, node := range nodes[1:] {
					name, ok := node.NameOf(member)
					if ok != ok0 || name != name0 {
						t.Fatalf("member %v named %d/%v by one node, %d/%v by another",
							member, name0, ok0, name, ok)
					}
				}
			}
		})
	}
}

// Termination spread: correct nodes terminate within one round of each
// other (relay on the terminate quorum).
func TestRenamingTerminationSpread(t *testing.T) {
	t.Parallel()
	nodes, _ := spec.NewFleet(t, 9, 10, 3, bound(13), fresh, spec.Silent).Run()
	minR, maxR := nodes[0].TerminationRound(), nodes[0].TerminationRound()
	for _, node := range nodes {
		r := node.TerminationRound()
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR-minR > 1 {
		t.Fatalf("termination rounds spread %d..%d", minR, maxR)
	}
}
