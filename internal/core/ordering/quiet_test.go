package ordering

import (
	"bytes"
	"fmt"
	"testing"

	"uba/internal/core/parallelcon"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// An execution started with no inputs stays a record until an inbox names
// its round, and is then built and caught up on empty inboxes. For every
// first-contact round k of the first phase and every kind of payload that
// can name the round there — the three joining kinds in their windows and
// out of them, an opinion, a rotor echo under the execution's own tag — it
// ends where Algorithm 5's execution built at its start
// (spec.NewScopedParallelConsensus) ends when stepped with the same
// inboxes (payloads of the neighbouring rounds only, before k): the same
// sends and the same done in every round, the same outputs, awareness and
// decision round; an execution nothing names is done at its first PR5
// without ever being built. So it does through the shared block and
// through the private segment, and when the node misses a round (a crash
// it recovered from) before or after k. Catching up sends nothing: quiet
// panics if it does.
func TestQuietExecutionBuiltLateMatchesBuiltAtStart(t *testing.T) {
	t.Parallel()
	const (
		self   = ids.ID(3)
		round  = uint64(40) // the execution's protocol round
		start  = 100        // the network round it starts in
		rounds = 15
	)
	members := []ids.ID{1, 2, 3, 4}
	scope := parallelcon.NewScope(ids.NewSet(members...))
	iid := instanceTag(round, 2)
	// A healthy first phase of the execution in which member 2 had an
	// input, from the three other members, by local round.
	script := map[int]wire.Payload{
		2: wire.Input{Instance: iid, X: wire.V(5)},
		3: wire.Prefer{Instance: iid, X: wire.V(5)},
		4: wire.StrongPrefer{Instance: iid, X: wire.V(5)},
	}
	foreign := []wire.Payload{
		wire.Input{Instance: instanceTag(round-1, 2), X: wire.V(1)},
		wire.Prefer{Instance: instanceTag(round+1, 4), X: wire.V(2)},
		wire.IDEcho{Instance: instanceTag(round+1, 0), Candidate: 9},
	}
	contacts := map[string]wire.Payload{
		"input":              wire.Input{Instance: iid, X: wire.V(5)},
		"prefer":             wire.Prefer{Instance: iid, X: wire.V(5)},
		"nopreference":       wire.NoPreference{Instance: iid},
		"strongprefer":       wire.StrongPrefer{Instance: iid, X: wire.V(5)},
		"nostrongpreference": wire.NoStrongPreference{Instance: iid},
		"opinion":            wire.Opinion{Instance: iid, X: wire.V(5)},
		"echo":               wire.IDEcho{Instance: instanceTag(round, 0), Candidate: 9},
		"nothing":            nil,
	}
	shapes := map[string]func([]simnet.Received) simnet.Inbox{
		"block":   func(msgs []simnet.Received) simnet.Inbox { return simnet.InboxOfRound(msgs, nil) },
		"unicast": func(msgs []simnet.Received) simnet.Inbox { return simnet.InboxOfRound(nil, msgs) },
	}
	encode := func(sent []wire.Payload) string {
		var b bytes.Buffer
		for _, p := range sent {
			fmt.Fprintf(&b, "%x;", wire.Encode(p))
		}
		return b.String()
	}
	// outcome is the instances an execution joined with their decision
	// rounds, its outputs and its phases, as spec.ParallelConsensus.Outcome
	// has them — iid is the one instance of its round it can join — and
	// for one never built, nothing joined in one phase.
	outcome := func(n *parallelcon.Node) string {
		if n == nil {
			return fmt.Sprint([]any{[][2]uint64(nil), []spec.Pair(nil), 1})
		}
		var joined [][2]uint64
		if n.Aware(iid) {
			joined = append(joined, [2]uint64{iid, uint64(n.DecisionRound(iid))})
		}
		return fmt.Sprint([]any{joined, n.Outputs(), n.Phases()})
	}
	outputs, joined := 0, 0
	for k := 1; k <= 5; k++ {
		for kind, contact := range contacts {
			for shape, inboxOf := range shapes {
				for _, gap := range []int{0, 3, 5} {
					name := fmt.Sprintf("k=%d %s via %s, round %d missed", k, kind, shape, gap)
					inbox := func(local int) simnet.Inbox {
						var ps []wire.Payload
						switch {
						case local < k || contact == nil:
							ps = foreign
						case local == k:
							ps = append(append(ps, foreign...), contact)
						case script[local] != nil:
							ps = []wire.Payload{script[local]}
						}
						var msgs []simnet.Received
						for _, from := range []ids.ID{1, 2, 4} {
							for _, p := range ps {
								msgs = append(msgs, simnet.Received{From: from, Payload: p})
							}
						}
						return inboxOf(msgs)
					}
					eager := spec.NewScopedParallelConsensus(self, nil, spec.Scoped{S: members, Start: start, Round: round})
					late := &Node{id: self, stepped: start - 1, window: []run{{round: round, scope: scope, start: start}}}
					wantBuilt := k
					if contact == nil {
						wantBuilt = rounds + 1 // never: done by its first PR5
					}
					if gap != 0 && wantBuilt >= gap {
						wantBuilt = gap + 1
					}
					for local := 1; local <= rounds; local++ {
						if local == gap {
							continue
						}
						in := inbox(local)
						eagerEnv := simnet.RoundEnv{Round: start + local - 1, Inbox: in}
						lateEnv := eagerEnv
						if !eager.Done() {
							eager.Step(&eagerEnv)
						}
						late.drive(&lateEnv)
						eagerSent, lateSent := eagerEnv.Sent(), lateEnv.Sent()
						if built := late.window[0].node != nil; built != (local >= wantBuilt) {
							t.Fatalf("%s: after local round %d built=%v, want built from round %d", name, local, built, wantBuilt)
						}
						if local < k && len(eagerSent) != 0 {
							t.Fatalf("%s: premise: the execution sent %v in round %d, before anything named it", name, eagerSent, local)
						}
						if got, want := encode(lateSent), encode(eagerSent); got != want {
							t.Fatalf("%s: local round %d: built late it sends %v, built at its start %v", name, local, lateSent, eagerSent)
						}
						if late.window[0].done != eager.Done() {
							t.Fatalf("%s: local round %d: done=%v built late, %v built at its start",
								name, local, late.window[0].done, eager.Done())
						}
					}
					got := late.window[0].node
					if !late.window[0].done {
						t.Fatalf("%s: not done after %d rounds", name, rounds)
					}
					if g, w := outcome(got), fmt.Sprint(eager.Outcome()); g != w {
						t.Fatalf("%s: joined, decided in, output and phases %s built late (built: %v), %s built at its start",
							name, g, got != nil, w)
					}
					if gap == 0 && len(eager.Outputs()) > 0 {
						outputs++
					}
					if gap == 0 && got != nil && got.Aware(iid) {
						joined++
					}
				}
			}
		}
	}
	// Missing no round, in both shapes: the five joining kinds in their
	// windows join (input at PR2, either prefer at PR3, either strongprefer
	// at PR4), and all but nostrongpreference decide 5; an echo at PR1–PR3
	// does not name the instance, so the script's next message joins it and
	// decides 5.
	if joined != (5+3)*2 || outputs != (4+3)*2 {
		t.Fatalf("vacuous: %d cases joined the instance and %d output a pair, want 16 and 14", joined, outputs)
	}
}
