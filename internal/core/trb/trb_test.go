package trb

import (
	"bytes"
	"fmt"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// from builds correct node i of a fleet: the source, broadcasting body,
// if its id is source, and otherwise a node expecting source's broadcast.
func from(source ids.ID, body []byte) func(int, ids.ID) *Node {
	return func(_ int, id ids.ID) *Node {
		if id == source {
			return NewSource(id, body)
		}
		return New(id, source)
	}
}

// bound is the network of a run of n nodes: 60 rounds a node and 200 more.
func bound(n int) simnet.Config { return simnet.Config{MaxRounds: 60*n + 200} }

// Correct source: everyone terminates and delivers exactly the body.
func TestCorrectSourceDelivered(t *testing.T) {
	t.Parallel()
	body := []byte("the payload")
	nodes, rounds := spec.NewFleet(t, 1, 7, 2, bound(9), from(spec.IDs(1, 9)[0], body), spec.Silent).Run()
	for _, node := range nodes {
		got, delivered, ok := node.Output()
		if !ok || !delivered {
			t.Fatalf("node %v: delivered=%v ok=%v", node.ID(), delivered, ok)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("node %v delivered %q, want %q", node.ID(), got, body)
		}
	}
	// Unanimous opinions: single consensus phase (round 7).
	if rounds != 7 {
		t.Fatalf("took %d rounds, want 7", rounds)
	}
}

// Silent (crashed) source: everyone agrees "nothing delivered".
func TestSilentSourceAgreesOnNothing(t *testing.T) {
	t.Parallel()
	nodes, _ := spec.NewFleet(t, 2, 7, 2, bound(9), from(spec.IDs(2, 9)[7], nil), spec.Silent).Run()
	for _, node := range nodes {
		_, delivered, ok := node.Output()
		if !ok {
			t.Fatalf("node %v did not terminate", node.ID())
		}
		if delivered {
			t.Fatalf("node %v delivered from a silent source", node.ID())
		}
	}
}

// Equivocating Byzantine source (different bodies to different halves):
// all correct nodes agree on a single outcome — one of the bodies or
// nothing — and any delivered body is identical everywhere.
func TestEquivocatingSourceForcesSingleOutcome(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			bodyA, bodyB := []byte("AAA"), []byte("BBB")
			source := spec.IDs(seed, 9)[7]
			split := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
				return &splitSource{id: id, dir: dir, source: source, bodyA: bodyA, bodyB: bodyB}
			})
			nodes, _ := spec.NewFleet(t, seed, 7, 2, bound(9), from(source, nil), split).Run()
			refBody, refDelivered, _ := nodes[0].Output()
			for _, node := range nodes {
				body, delivered, ok := node.Output()
				if !ok {
					t.Fatalf("node %v did not terminate", node.ID())
				}
				if delivered != refDelivered || !bytes.Equal(body, refBody) {
					t.Fatalf("outcome mismatch: %v got (%q,%v), %v got (%q,%v)",
						nodes[0].ID(), refBody, refDelivered, node.ID(), body, delivered)
				}
			}
			if refDelivered && !bytes.Equal(refBody, bodyA) && !bytes.Equal(refBody, bodyB) && refBody != nil {
				t.Fatalf("delivered foreign body %q", refBody)
			}
		})
	}
}

// splitSource is a Byzantine source (plus helpers) sending body A to one
// half and body B to the other in round 1, then split-voting fingerprints.
type splitSource struct {
	id     ids.ID
	dir    *adversary.Directory
	source ids.ID
	bodyA  []byte
	bodyB  []byte
}

func (s *splitSource) ID() ids.ID { return s.id }
func (s *splitSource) Done() bool { return false }
func (s *splitSource) Step(env *simnet.RoundEnv) {
	halfA, halfB := s.dir.Halves()
	switch env.Round {
	case 1:
		env.Broadcast(wire.Init{})
		if s.id == s.source {
			for _, to := range halfA {
				env.Send(to, wire.RBMessage{Source: s.id, Body: s.bodyA})
			}
			for _, to := range halfB {
				env.Send(to, wire.RBMessage{Source: s.id, Body: s.bodyB})
			}
		}
	case 2:
		env.Broadcast(wire.IDEcho{Candidate: s.id})
	default:
		fpA, fpB := Fingerprint(s.bodyA), Fingerprint(s.bodyB)
		switch (env.Round - 3) % 5 {
		case 0:
			for _, to := range halfA {
				env.Send(to, wire.Input{X: fpA})
			}
			for _, to := range halfB {
				env.Send(to, wire.Input{X: fpB})
			}
		case 1:
			for _, to := range halfA {
				env.Send(to, wire.Prefer{X: fpA})
			}
			for _, to := range halfB {
				env.Send(to, wire.Prefer{X: fpB})
			}
		case 2:
			for _, to := range halfA {
				env.Send(to, wire.StrongPrefer{X: fpA})
			}
			for _, to := range halfB {
				env.Send(to, wire.StrongPrefer{X: fpB})
			}
		}
	}
}

func TestFingerprintProperties(t *testing.T) {
	t.Parallel()
	a := Fingerprint([]byte("hello"))
	b := Fingerprint([]byte("hello"))
	c := Fingerprint([]byte("world"))
	if !a.Equal(b) {
		t.Fatal("fingerprint not deterministic")
	}
	if a.Equal(c) {
		t.Fatal("distinct bodies collide")
	}
	empty := Fingerprint(nil)
	if empty.IsBot {
		t.Fatal("fingerprint of empty body must not be ⊥")
	}
	// Fingerprints survive the wire round trip bit-exactly (NaN
	// patterns included).
	enc := wire.Encode(wire.Input{X: a})
	dec, err := wire.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.(wire.Input).X.Equal(a) {
		t.Fatal("fingerprint mangled by encoding")
	}
}
