package simnet_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// sharer holds a census that starts as one of a few sealed sets, merges
// each round's senders into it the way every family does
// (Inbox.Union), counts the block against it and broadcasts.
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
	s.cen = census.Of(env.Inbox.Union(s.before))
	env.Inbox.Counted(s.cen.Members())
	env.Broadcast(wire.Input{X: wire.V(float64(env.Round))})
}

// A round whose nodes hold k distinct census contents builds exactly k
// merges and k counted views, however many addresses hold each content,
// whichever node asks first and however many workers race: from the
// first round with a block on, every holder of one content holds the
// same merged set, that set is the census ∪ the broadcasters, and a
// census that every broadcaster is in already comes back as itself. The
// three contents are everyone and a stranger, everyone and another
// stranger (whole from the first merge on), and a third of the nodes and
// two strangers (whole after the first merge: a new set once, then
// itself); each is held at two addresses.
func TestUnionsAndViewsBuiltOncePerSharedCensus(t *testing.T) {
	t.Parallel()
	const rounds = 5
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			nodeIDs := ids.Sparse(rand.New(rand.NewSource(4)), 70)
			contents := []*ids.Set{
				ids.NewSet(append([]ids.ID{1}, nodeIDs...)...),
				ids.NewSet(append([]ids.ID{2}, nodeIDs...)...),
				ids.NewSet(append([]ids.ID{3, 1 << 50}, nodeIDs[:len(nodeIDs)/3]...)...),
			}
			k := len(contents)
			for _, c := range contents[:k] {
				contents = append(contents, c.Clone())
			}
			net := simnet.New(simnet.Config{Workers: workers})
			defer net.Close()
			nodes := make([]*sharer, len(nodeIDs))
			for i, id := range nodeIDs {
				nodes[i] = &sharer{id: id, cen: census.Of(contents[i%len(contents)])}
				if err := net.Add(nodes[i]); err != nil {
					t.Fatal(err)
				}
			}
			for round := 1; round <= rounds; round++ {
				unions, views := simnet.UnionBuilds(net), simnet.CountedBuilds(net)
				if err := net.RunRound(); err != nil {
					t.Fatal(err)
				}
				want := int64(k)
				if round == 1 {
					want = 0 // no block yet
				}
				if got := simnet.UnionBuilds(net) - unions; got != want {
					t.Fatalf("round %d: %d merges built for %d census contents", round, got, want)
				}
				if got := simnet.CountedBuilds(net) - views; got != want {
					t.Fatalf("round %d: %d views built for %d census contents", round, got, want)
				}
				for i, n := range nodes {
					got, first := n.cen.Members(), nodes[i%k].cen.Members()
					if !got.Sealed() || !got.Equal(n.want) {
						t.Fatalf("round %d: node %d holds %d members (sealed %v), want %d", round, i, got.Len(), got.Sealed(), n.want.Len())
					}
					if round > 1 && got != first {
						t.Fatalf("round %d: node %d holds %p, another holder of its content %p", round, i, got, first)
					}
					if round > 2 && got != n.before {
						t.Fatalf("round %d: node %d's whole census came back as a new set", round, i)
					}
				}
			}
		})
	}
}

// murmur is a Byzantine node that broadcasts nothing and unicasts once
// to each node of to in turn, one a round from round 1: to[k] hears it
// in round k+2.
type murmur struct {
	id ids.ID
	to []ids.ID
}

func (m *murmur) ID() ids.ID { return m.id }
func (m *murmur) Done() bool { return false }

func (m *murmur) Step(env *simnet.RoundEnv) {
	if k := env.Round - 1; k < len(m.to) {
		env.Send(m.to[k], wire.Input{X: wire.V(1)})
	}
}

// Two nodes that diverge from the fleet's census by one private sender,
// one round apart, each get a set of their own; once both hold equal
// contents, the next round with a block hands them one set again, while
// the rest of the fleet keeps its own.
func TestDivergedCensusesShareOneSetAfterTheNextBlock(t *testing.T) {
	t.Parallel()
	const g = 12
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			nodeIDs := ids.Sparse(rand.New(rand.NewSource(8)), g)
			net := simnet.New(simnet.Config{Workers: workers})
			defer net.Close()
			nodes := make([]*sharer, g)
			for i, id := range nodeIDs {
				nodes[i] = &sharer{id: id}
				if err := net.Add(nodes[i]); err != nil {
					t.Fatal(err)
				}
			}
			m := &murmur{id: slices.Max(nodeIDs) + 1, to: nodeIDs[:2]}
			if err := net.AddByzantine(m); err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 5; round++ {
				if err := net.RunRound(); err != nil {
					t.Fatal(err)
				}
				a, b, rest := nodes[0].cen.Members(), nodes[1].cen.Members(), nodes[2].cen.Members()
				if round < 3 {
					continue
				}
				if a.Len() != g+1 || !a.Equal(b) || !a.Contains(m.id) || rest.Len() != g || rest == a {
					t.Fatalf("round %d: the murmured-to nodes hold %d and %d members, the fleet %d", round, a.Len(), b.Len(), rest.Len())
				}
				if diverged := round == 3; diverged != (a != b) {
					t.Fatalf("round %d: the murmured-to nodes hold %p and %p", round, a, b)
				}
				for _, n := range nodes[2:] {
					if n.cen.Members() != rest {
						t.Fatalf("round %d: the fleet holds more than one set", round)
					}
				}
			}
		})
	}
}
