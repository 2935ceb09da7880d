package simnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// sharer holds a census that starts as one of a few shared sets, merges
// each round's broadcasters into it the way every family does (a
// shared census takes Inbox.Union), counts the block against it and
// broadcasts.
type sharer struct {
	id     ids.ID
	cen    census.Census
	before *ids.Set // the census the last Step started from
	want   *ids.Set // that census ∪ the round's broadcasters, merged by hand
}

func (s *sharer) ID() ids.ID { return s.id }
func (s *sharer) Done() bool { return false }

func (s *sharer) Step(env *simnet.RoundEnv) {
	s.before = s.cen.Members()
	s.want = s.before.Clone()
	s.want.AddAscending(env.Inbox.Broadcasters())
	s.cen.Share(env.Inbox.Union(s.before))
	env.Inbox.Counted(s.cen.Members())
	env.Broadcast(wire.Input{X: wire.V(float64(env.Round))})
}

// A round whose nodes hold k distinct shared censuses builds exactly k
// merges and k counted views, whichever node asks first and however
// many workers race: every holder of one census gets the same merged
// set back, that set is the census ∪ the broadcasters, and a census
// that every broadcaster is in already comes back as itself. The three
// censuses are everyone and a stranger, everyone and another stranger
// (whole from the first merge on), and a third of the nodes and two
// strangers (whole after the first merge: a new set once, then itself).
func TestUnionsAndViewsBuiltOncePerSharedCensus(t *testing.T) {
	t.Parallel()
	const rounds = 5
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			nodeIDs := ids.Sparse(rand.New(rand.NewSource(4)), 70)
			shared := []*ids.Set{
				ids.NewSet(append([]ids.ID{1}, nodeIDs...)...).Seal(),
				ids.NewSet(append([]ids.ID{2}, nodeIDs...)...).Seal(),
				ids.NewSet(append([]ids.ID{3, 1 << 50}, nodeIDs[:len(nodeIDs)/3]...)...).Seal(),
			}
			net := simnet.New(simnet.Config{Workers: workers})
			defer net.Close()
			nodes := make([]*sharer, len(nodeIDs))
			for i, id := range nodeIDs {
				nodes[i] = &sharer{id: id}
				nodes[i].cen.Share(shared[i%len(shared)])
				if err := net.Add(nodes[i]); err != nil {
					t.Fatal(err)
				}
			}
			for round := 1; round <= rounds; round++ {
				unions, views := simnet.UnionBuilds(net), simnet.CountedBuilds(net)
				if err := net.RunRound(); err != nil {
					t.Fatal(err)
				}
				want := int64(len(shared))
				if round == 1 {
					want = 0 // no block yet
				}
				if got := simnet.UnionBuilds(net) - unions; got != want {
					t.Fatalf("round %d: %d merges built for %d censuses", round, got, want)
				}
				if got := simnet.CountedBuilds(net) - views; got != want {
					t.Fatalf("round %d: %d views built for %d censuses", round, got, want)
				}
				for i, n := range nodes {
					got, first := n.cen.Members(), nodes[i%len(shared)].cen.Members()
					if got != first || !got.Sealed() || !got.Equal(n.want) {
						t.Fatalf("round %d: node %d holds %p (sealed %v, %d members), its group's first %p, want %d members",
							round, i, got, got.Sealed(), got.Len(), first, n.want.Len())
					}
					if round > 2 && got != n.before {
						t.Fatalf("round %d: node %d's whole census came back as a new set", round, i)
					}
				}
			}
		})
	}
}
