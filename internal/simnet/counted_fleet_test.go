package simnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"uba/internal/adversary"
	"uba/internal/core/consensus"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// censused wraps a consensus node and notes what the engine's view
// builds depend on: the census the node freezes — everyone it heard in
// rounds 1 and 2 — and whether it was stepped, and over a block, in the
// current round.
type censused struct {
	*consensus.Node
	census  *ids.Set
	stepped int  // the last round the node was stepped in
	block   bool // whether that round delivered a broadcast block
}

func (c *censused) Step(env *simnet.RoundEnv) {
	if env.Round <= 2 {
		for m := range env.Inbox.All() {
			c.census.Add(m.From)
		}
	}
	c.stepped, c.block = env.Round, len(env.Inbox.Broadcasters()) > 0
	c.Node.Step(env)
}

// A consensus run builds one counted view per round for each distinct
// frozen census among the nodes stepped over a non-empty block, however
// many nodes read it: one under a silent adversary, two under the noise
// run pinned here, whose Byzantine nodes unicast to some correct nodes
// in the rounds that fix the census — and so for every worker count.
func TestConsensusBuildsOneViewPerCensus(t *testing.T) {
	t.Parallel()
	const g, f = 13, 6
	for _, tc := range []struct {
		name     string
		byz      func(id ids.ID, dir *adversary.Directory, i int) simnet.Process
		censuses int
	}{
		{"silent", func(id ids.ID, _ *adversary.Directory, _ int) simnet.Process { return adversary.NewSilent(id) }, 1},
		{"noise", func(id ids.ID, dir *adversary.Directory, i int) simnet.Process {
			return adversary.NewRandomNoise(id, dir, int64(i)+3)
		}, 2},
	} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				t.Parallel()
				all := ids.Sparse(rand.New(rand.NewSource(9)), g+f)
				dir := adversary.NewDirectory(all, all[g:])
				net := simnet.New(simnet.Config{Workers: workers})
				defer net.Close()
				nodes := make([]*censused, g)
				for i, id := range all[:g] {
					nodes[i] = &censused{Node: consensus.New(id, wire.V(float64(i%2))), census: ids.NewSet()}
					if err := net.Add(nodes[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i, id := range all[g:] {
					if err := net.AddByzantine(tc.byz(id, dir, i)); err != nil {
						t.Fatal(err)
					}
				}
				most := 0
				for round := 1; !allDone(nodes); round++ {
					// Consensus terminates within 5(f+4)+2 rounds; a node
					// whose Step panics is contained and never does.
					if round > 5*(f+4)+2 {
						t.Fatalf("not every node terminated in %d rounds", round-1)
					}
					before := simnet.CountedBuilds(net)
					if err := net.RunRound(); err != nil {
						t.Fatal(err)
					}
					var distinct []*ids.Set
					for _, n := range nodes {
						if round < 3 || n.stepped != round || !n.block {
							continue
						}
						if !containsSet(distinct, n.census) {
							distinct = append(distinct, n.census)
						}
					}
					if got := simnet.CountedBuilds(net) - before; got != int64(len(distinct)) {
						t.Fatalf("round %d: %d views built for %d distinct censuses", round, got, len(distinct))
					}
					most = max(most, len(distinct))
				}
				if most != tc.censuses {
					t.Fatalf("at most %d censuses in a round, want %d", most, tc.censuses)
				}
			})
		}
	}
}

func allDone(nodes []*censused) bool {
	for _, n := range nodes {
		if !n.Done() {
			return false
		}
	}
	return true
}

func containsSet(sets []*ids.Set, s *ids.Set) bool {
	for _, o := range sets {
		if o.Equal(s) {
			return true
		}
	}
	return false
}
