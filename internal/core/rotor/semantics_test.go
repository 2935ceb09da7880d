package rotor

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// This file pins, through whole simnet runs, what reading the broadcast
// block payload-major must not change about Algorithm 2.

// equivocator is a Byzantine coordinator: it follows the protocol — so
// it becomes a candidate and is selected in its turn, broadcasting its
// opinion then — and on top of that unicasts a second, different opinion
// to one victim in every round. In the round after its selection the
// victim's inbox holds two opinions from the same coordinator, one in
// the shared block and one in its private segment.
type equivocator struct {
	*Node
	victim  ids.ID
	private wire.Value
}

func (e *equivocator) Step(env *simnet.RoundEnv) {
	e.Node.Step(env)
	env.Send(e.victim, wire.Opinion{X: e.private})
}

// The rule for a coordinator that sends two opinions to one receiver in
// one round: the one with the greatest encoding counts, whichever way it
// travelled. (It is the last of the two in the engine's merged inbox
// order, which is what a message-by-message reader ends up holding.)
// Everyone else sees only the broadcast.
func TestEquivocatingCoordinatorIsTakenAtItsGreatestEncoding(t *testing.T) {
	t.Parallel()
	// Encoding order is not numeric order: 1.0 encodes after 2.0.
	lesser, greater := wire.V(2), wire.V(1)
	if bytes.Compare(wire.Encode(wire.Opinion{X: greater}), wire.Encode(wire.Opinion{X: lesser})) <= 0 {
		t.Fatal("premise: opinion(1) must encode after opinion(2)")
	}
	for _, tc := range []struct {
		name               string
		broadcast, private wire.Value
	}{
		{"greater by unicast", lesser, greater},
		{"greater by broadcast", greater, lesser},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var byz, victim ids.ID
			mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
				byz, victim = byzIDs[0], dir.Correct()[0]
				return []simnet.Process{&equivocator{Node: New(byz, tc.broadcast), victim: victim, private: tc.private}}
			}
			nodes, _ := spec.NewFleet(t, 11, 6, 1, bound(7, nil), opinioned, mkByz).Run()
			sawVictim, sawOthers := false, false
			for _, node := range nodes {
				for _, a := range node.AcceptedOpinions() {
					if a.From != byz {
						continue
					}
					want := tc.broadcast
					if node.ID() == victim {
						want, sawVictim = greater, true
					} else {
						sawOthers = true
					}
					if !a.X.Equal(want) {
						t.Fatalf("node %v (victim %v) accepted %v from the equivocator, want %v", node.ID(), victim, a.X, want)
					}
				}
			}
			if !sawVictim || !sawOthers {
				t.Fatalf("vacuous run: equivocator's opinion accepted by victim: %v, by others: %v", sawVictim, sawOthers)
			}
		})
	}
}

// A link-fault round delivers every broadcast through the receivers'
// private segments and leaves the shared block empty. The same sends
// must then produce the same protocol: a plan whose one rule never
// drops anything (but keeps the filter live from round 1) yields, node
// for node, the candidate sets, selections and accepted opinions of the
// healthy run — against silent and ghost-echoing Byzantine nodes alike.
func TestLinkFaultRoundsReadLikeHealthyRounds(t *testing.T) {
	t.Parallel()
	ghosts := ids.Sparse(rand.New(rand.NewSource(77)), 12)
	adversaries := map[string]func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process{
		"silent": spec.Silent,
		"ghost": spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return adversary.NewGhostCandidate(id, dir, ghosts)
		}),
	}
	for name, mkByz := range adversaries {
		for seed := int64(1); seed <= 3; seed++ {
			name, mkByz, seed := name, mkByz, seed
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				demoteAll := &simnet.FaultPlan{Seed: 1, Events: []simnet.FaultEvent{
					{Round: 1, Kind: simnet.FaultDrop, Rate: 0},
				}}
				healthy, healthyRounds := spec.NewFleet(t, seed, 10, 3, bound(13, nil), opinioned, mkByz).Run()
				faulty, faultyRounds := spec.NewFleet(t, seed, 10, 3, bound(13, demoteAll), opinioned, mkByz).Run()
				if healthyRounds != faultyRounds {
					t.Fatalf("healthy run took %d rounds, link-fault run %d", healthyRounds, faultyRounds)
				}
				for i, h := range healthy {
					f := faulty[i]
					if !h.Candidates().Equal(f.Candidates()) {
						t.Fatalf("node %v: C_v %v healthy, %v on link-fault rounds",
							h.ID(), h.Candidates().Members(), f.Candidates().Members())
					}
					if !reflect.DeepEqual(h.Selections(), f.Selections()) {
						t.Fatalf("node %v: selections differ:\nhealthy    %+v\nlink-fault %+v", h.ID(), h.Selections(), f.Selections())
					}
					if !reflect.DeepEqual(h.AcceptedOpinions(), f.AcceptedOpinions()) {
						t.Fatalf("node %v: accepted opinions differ", h.ID())
					}
				}
			})
		}
	}
}
