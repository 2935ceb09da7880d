package relbcast

import (
	"fmt"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// sourceAt builds correct node i of a fleet: node k is the source of
// body, the others relay (k < 0: all relay).
func sourceAt(k int, body []byte) func(int, ids.ID) *Node {
	return func(i int, id ids.ID) *Node {
		if i == k {
			return NewSource(id, body)
		}
		return NewRelay(id)
	}
}

// Correctness (Lemma 1): with a correct source and n > 3f, every correct
// node accepts (m, s) in round 3 exactly.
func TestCorrectSourceAcceptedInRoundThree(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ nCorrect, nByz int }{
		{4, 0}, {3, 1}, {7, 2}, {9, 4}, {21, 10},
	} {
		tc := tc
		t.Run(fmt.Sprintf("g=%d_f=%d", tc.nCorrect, tc.nByz), func(t *testing.T) {
			t.Parallel()
			body := []byte("payload")
			nodes := spec.NewFleet(t, 11, tc.nCorrect, tc.nByz, simnet.Config{MaxRounds: 200}, sourceAt(0, body), spec.Silent).RunFor(4)
			src := nodes[0].ID()
			for _, node := range nodes {
				round, ok := node.HasAccepted(src, body)
				if !ok {
					t.Fatalf("node %v did not accept", node.ID())
				}
				if round != 3 {
					t.Fatalf("node %v accepted in round %d, want 3", node.ID(), round)
				}
			}
		})
	}
}

// The present broadcasts guarantee n_v ≥ g at every correct node from
// round 2 on.
func TestPresentMakesCensusCoverCorrectNodes(t *testing.T) {
	t.Parallel()
	nodes := spec.NewFleet(t, 3, 6, 2, simnet.Config{MaxRounds: 200}, sourceAt(0, []byte("m")), spec.Silent).RunFor(2)
	for _, node := range nodes {
		if node.NV() < 6 {
			t.Fatalf("node %v has n_v = %d < g = 6", node.ID(), node.NV())
		}
	}
}

// Unforgeability: a coalition that fabricates echoes for a message the
// (correct) source never sent must not get it accepted while n > 3f.
func TestForgedEchoesRejectedWhenResilient(t *testing.T) {
	t.Parallel()
	forgedBody := []byte("forged")
	// g = 5 correct, f = 2 Byzantine: n = 7 > 3f = 6.
	all := spec.IDs(21, 7)
	victim := all[1] // a correct relay that never broadcasts anything
	amplify := spec.Each(func(id ids.ID, _ *adversary.Directory) simnet.Process {
		return adversary.NewEchoAmplifier(id, victim, forgedBody)
	})
	correct := spec.NewFleet(t, 21, 5, 2, simnet.Config{MaxRounds: 100}, sourceAt(0, []byte("legit")), amplify).RunFor(30)
	for _, node := range correct {
		if _, ok := node.HasAccepted(victim, forgedBody); ok {
			t.Fatalf("node %v accepted a forged message from correct node %v",
				node.ID(), victim)
		}
		if _, ok := node.HasAccepted(all[0], []byte("legit")); !ok {
			t.Fatalf("node %v failed to accept the legitimate broadcast", node.ID())
		}
	}
}

// The same forgery succeeds when n = 3f, demonstrating that n > 3f is
// exactly the resiliency boundary (experiment E3's unit-scale core).
func TestForgedEchoesAcceptedAtBoundary(t *testing.T) {
	t.Parallel()
	forgedBody := []byte("forged")
	// g = 4 correct, f = 2 Byzantine: n = 6 = 3f, resiliency violated.
	victim := spec.IDs(22, 6)[1]
	amplify := spec.Each(func(id ids.ID, _ *adversary.Directory) simnet.Process {
		return adversary.NewEchoAmplifier(id, victim, forgedBody)
	})
	correct := spec.NewFleet(t, 22, 4, 2, simnet.Config{MaxRounds: 100}, sourceAt(-1, nil), amplify).RunFor(30)
	violated := false
	for _, node := range correct {
		if _, ok := node.HasAccepted(victim, forgedBody); ok {
			violated = true
		}
	}
	if !violated {
		t.Fatal("expected unforgeability to be violable at n = 3f; it held")
	}
}

// Relay (Lemma 4): whenever any correct node accepts any (m, s) in round
// r, every correct node has accepted it by round r+1 — even under an
// equivocating source backed by a coalition.
func TestRelayPropertyUnderEquivocation(t *testing.T) {
	t.Parallel()
	bodyA, bodyB := []byte("A"), []byte("B")
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			// g = 7 correct relays, f = 2 Byzantine (source + helper).
			byzIDs := spec.IDs(seed, 9)[7:]
			equivocate := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
				return adversary.NewRBEquivocator(id, dir, byzIDs[0], bodyA, bodyB)
			})
			correct := spec.NewFleet(t, seed, 7, 2, simnet.Config{MaxRounds: 100}, sourceAt(-1, nil), equivocate).RunFor(40)
			for _, body := range [][]byte{bodyA, bodyB} {
				first, last := 0, 0
				accepted := 0
				for _, node := range correct {
					round, ok := node.HasAccepted(byzIDs[0], body)
					if !ok {
						continue
					}
					accepted++
					if first == 0 || round < first {
						first = round
					}
					if round > last {
						last = round
					}
				}
				if accepted != 0 && accepted != len(correct) {
					t.Fatalf("body %q: %d/%d correct nodes accepted (totality violated)",
						body, accepted, len(correct))
				}
				if accepted > 0 && last > first+1 {
					t.Fatalf("body %q: first acceptance round %d, last %d (relay violated)",
						body, first, last)
				}
			}
		})
	}
}

// Multiple concurrent sources: every correct node accepts every correct
// source's message, each tracked independently.
func TestManyConcurrentSources(t *testing.T) {
	t.Parallel()
	fl := spec.NewFleet(t, 5, 8, 2, simnet.Config{MaxRounds: 100}, func(i int, id ids.ID) *Node {
		return NewSource(id, []byte{byte('a' + i)})
	}, spec.Silent)
	nodes, all := fl.RunFor(4), fl.IDs
	for _, node := range nodes {
		acc := node.Accepted()
		if len(acc) != 8 {
			t.Fatalf("node %v accepted %d broadcasts, want 8", node.ID(), len(acc))
		}
		for i, a := range acc {
			if a.Source != all[i] {
				t.Fatalf("acceptance %d from %v, want %v", i, a.Source, all[i])
			}
		}
	}
}

// A Byzantine node relaying someone else's round-1 message must not
// trigger the direct-receipt echo: only From == Source counts.
func TestRelayedInitDoesNotCountAsDirect(t *testing.T) {
	t.Parallel()
	victim := spec.IDs(9, 5)[0]
	// The Byzantine node broadcasts an RBMessage whose Source field
	// names the (silent, correct) victim. Receivers must not echo it.
	replay := spec.Each(func(id ids.ID, _ *adversary.Directory) simnet.Process {
		return &replayer{id: id, payloadSource: victim, body: []byte("fake")}
	})
	nodes := spec.NewFleet(t, 9, 4, 1, simnet.Config{MaxRounds: 100}, sourceAt(-1, nil), replay).RunFor(20)
	for _, node := range nodes {
		if _, ok := node.HasAccepted(victim, []byte("fake")); ok {
			t.Fatalf("node %v accepted a relayed forgery", node.ID())
		}
		if len(node.Accepted()) != 0 {
			t.Fatalf("node %v accepted something unexpected: %+v", node.ID(), node.Accepted())
		}
	}
}

// replayer broadcasts an RBMessage with a forged Source field every round.
type replayer struct {
	id            ids.ID
	payloadSource ids.ID
	body          []byte
}

func (r *replayer) ID() ids.ID { return r.id }
func (r *replayer) Done() bool { return false }
func (r *replayer) Step(env *simnet.RoundEnv) {
	env.Broadcast(wire.RBMessage{Source: r.payloadSource, Body: r.body})
}
