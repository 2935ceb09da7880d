package ordering

import (
	"slices"
	"testing"

	"uba/internal/core/parallelcon"
	"uba/internal/ids"
)

// rebuild is the membership snapshot of protocol round `round` computed
// from the node's activeFrom record alone, the way every Step used to.
func rebuild(n *Node, round uint64) *ids.Set {
	s := ids.NewSet()
	for _, m := range n.activeFrom {
		if m.from <= round {
			s.Add(m.id)
		}
	}
	return s
}

// The cached membership epoch is the snapshot, every round, at every
// correct node: under two membership churners, three simultaneous joiners,
// a present and an absent landing in one round and a leave two rounds
// after a join, the scope a Step ran under equals the from-scratch rebuild
// from activeFrom taken just before it (set, |S|, every member's rank);
// consecutive rounds — and the executions in the window — share one scope
// exactly when their membership is the same; and scribbling over what
// Members returns shows nowhere.
func TestEpochCacheMatchesRebuildUnderChurn(t *testing.T) {
	t.Parallel()
	fl, founders := founded(t, 83, 7, 2, churners)
	nodes := slices.Clone(founders)
	joinAt := func(id ids.ID) { nodes = append(nodes, join(t, fl, id)) }

	type seen struct {
		scope   *parallelcon.Scope
		members *ids.Set
	}
	last := make(map[*Node]seen)
	shared, changed := 0, 0
	for r := 1; r <= 70; r++ {
		switch r {
		case 5: // simultaneous joiners
			joinAt(880001)
			joinAt(880002)
			joinAt(880003)
		case 12: // a present and an absent land together in round 13
			joinAt(880004)
			nodes[0].Leave()
		case 20:
			joinAt(880005)
		case 22: // a leave two rounds after a join
			nodes[1].Leave()
		case 40: // a joiner leaves again
			nodes[8].Leave()
		}
		founders[r%len(founders)].SubmitEvent(float64(r))

		want := make(map[*Node]*ids.Set)
		for _, node := range nodes {
			if node.joined && !node.left {
				want[node] = rebuild(node, node.r+1)
			}
		}
		fl.RunFor(1)

		for _, node := range nodes {
			members, stepped := want[node]
			if !stepped {
				continue
			}
			scope := node.scope
			if !scope.Equal(members) || !scope.Members().Equal(members) {
				t.Fatalf("round %d: node %v ran under %v, activeFrom says %v",
					r, node.ID(), scope.Members().Members(), members.Members())
			}
			if scope.N() != members.Len() {
				t.Fatalf("round %d: node %v: census of %d over %d members", r, node.ID(), scope.N(), members.Len())
			}
			for rank, id := range members.Members() {
				if got, ok := scope.Members().Rank(id); !ok || got != rank || !scope.Contains(id) {
					t.Fatalf("round %d: node %v: member %v has rank %d (%v), want %d", r, node.ID(), id, got, ok, rank)
				}
			}
			if k := len(node.window) - 1; k >= 0 && node.window[k].round == node.r && node.window[k].scope != scope {
				t.Fatalf("round %d: node %v started its execution under another scope than the round's", r, node.ID())
			}

			// One scope per stretch of unchanged membership, across
			// rounds and across the executions still in flight.
			if prev, ok := last[node]; ok {
				same := prev.members.Equal(members)
				if same != (prev.scope == scope) {
					t.Fatalf("round %d: node %v: membership unchanged=%v but scope shared=%v", r, node.ID(), same, prev.scope == scope)
				}
				if same {
					shared++
				} else {
					changed++
				}
			}
			last[node] = seen{scope: scope, members: members}
			for k := 1; k < len(node.window); k++ {
				a, b := node.window[k-1].scope, node.window[k].scope
				if (a == b) != a.Equal(b.Members()) {
					t.Fatalf("round %d: node %v: executions %d and %d: one scope=%v, one membership=%v",
						r, node.ID(), node.window[k-1].round, node.window[k].round, a == b, a.Equal(b.Members()))
				}
			}

			// Members is the caller's copy of the snapshot as of now;
			// what is done to it must not reach the next round (the
			// comparisons above would see it).
			got := node.Members()
			if now := rebuild(node, node.r); !got.Equal(now) {
				t.Fatalf("round %d: node %v: Members() = %v, activeFrom says %v", r, node.ID(), got.Members(), now.Members())
			}
			got.Add(990000 + ids.ID(r))
			got.Remove(got.At(0))
		}
	}
	if shared == 0 || changed < 10 {
		t.Fatalf("vacuous run: %d shared and %d changed round pairs", shared, changed)
	}
	if !nodes[0].Done() || !nodes[1].Done() || !nodes[8].Done() {
		t.Fatal("leavers did not wind down")
	}
	checkChainPrefix(t, nodes[2:7])
}
