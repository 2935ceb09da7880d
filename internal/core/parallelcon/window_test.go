package parallelcon

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// driveInit runs a membership-mode node so the phase grid starts at
// round 1 deterministically.
func memberNode(self ids.ID, members []ids.ID, inputs []InputPair) *Node {
	return New(self, inputs, Options{Scope: NewScope(ids.NewSet(members...))})
}

// stepLocal drives one round the way Step does, counting the inbox with
// the node's own rank table, and drops what the node sends.
func stepLocal(n *Node, round int, inbox simnet.Inbox) {
	n.StepLocal(round, &inbox, rotor.Count(&inbox, n.frozen.Members(), &n.ranks), &simnet.RoundEnv{})
}

func rcvP(from ids.ID, p wire.Payload) simnet.Received {
	return simnet.Received{From: from, Payload: p}
}

// Awareness window 1: id:input arriving at PR2 joins the instance.
func TestJoinViaInputWindow(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	stepLocal(n, 1, simnet.Inbox{}) // PR1: nothing (no inputs)
	stepLocal(n, 2, simnet.InboxOf(
		rcvP(2, wire.Input{Instance: 9, X: wire.V(5)}),
	))
	if !n.Aware(9) {
		t.Fatal("input at PR2 did not create awareness")
	}
}

// Awareness window 2: id:prefer (or its marker) arriving at PR3 joins.
func TestJoinViaPreferWindow(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	for name, payload := range map[string]wire.Payload{
		"prefer":       wire.Prefer{Instance: 9, X: wire.V(5)},
		"nopreference": wire.NoPreference{Instance: 9},
	} {
		n := memberNode(1, members, nil)
		stepLocal(n, 1, simnet.Inbox{})
		stepLocal(n, 2, simnet.Inbox{})
		stepLocal(n, 3, simnet.InboxOf(rcvP(2, payload)))
		if !n.Aware(9) {
			t.Fatalf("%s at PR3 did not create awareness", name)
		}
	}
}

// Awareness window 3: id:strongprefer at PR4 joins — and the ⊥ fills make
// the instance terminate without output.
func TestJoinViaStrongPreferWindowTerminatesBot(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	stepLocal(n, 1, simnet.Inbox{})
	stepLocal(n, 2, simnet.Inbox{})
	stepLocal(n, 3, simnet.Inbox{})
	stepLocal(n, 4, simnet.InboxOf(
		rcvP(2, wire.StrongPrefer{Instance: 9, X: wire.V(5)}),
	))
	if !n.Aware(9) {
		t.Fatal("strongprefer at PR4 did not create awareness")
	}
	stepLocal(n, 5, simnet.Inbox{}) // PR5: resolve
	if r := n.DecisionRound(9); r != 5 {
		t.Fatalf("instance decided in round %d, want 5", r)
	}
	if len(n.Outputs()) != 0 {
		t.Fatalf("⊥-filled instance produced output: %v", n.Outputs())
	}
}

// First contact via an Opinion (the rotor round's message) is discarded.
func TestFirstContactViaOpinionIsIgnored(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	stepLocal(n, 1, simnet.Inbox{})
	stepLocal(n, 2, simnet.Inbox{})
	stepLocal(n, 3, simnet.Inbox{})
	stepLocal(n, 4, simnet.Inbox{})
	stepLocal(n, 5, simnet.InboxOf(
		rcvP(2, wire.Opinion{Instance: 9, X: wire.V(5)}),
	))
	if n.Aware(9) {
		t.Fatal("joined via an opinion message")
	}
	// The instance is permanently ignored, even if joinable-window
	// messages arrive in a later phase.
	stepLocal(n, 6, simnet.Inbox{}) // phase 1 PR1
	stepLocal(n, 7, simnet.InboxOf(
		rcvP(2, wire.Input{Instance: 9, X: wire.V(5)}),
	))
	if n.Aware(9) {
		t.Fatal("ignored instance resurrected in phase 1")
	}
}

// First contact in the second phase is discarded regardless of kind.
func TestSecondPhaseContactIgnored(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	for round := 1; round <= 6; round++ {
		stepLocal(n, round, simnet.Inbox{})
	}
	// Round 7 = phase 1, PR2: the input window of the wrong phase.
	stepLocal(n, 7, simnet.InboxOf(
		rcvP(2, wire.Input{Instance: 11, X: wire.V(3)}),
	))
	if n.Aware(11) {
		t.Fatal("second-phase input created awareness")
	}
}

// Messages from outside the membership snapshot never create awareness.
func TestStrangerCannotSeedInstance(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3, 4}
	n := memberNode(1, members, nil)
	stepLocal(n, 1, simnet.Inbox{})
	stepLocal(n, 2, simnet.InboxOf(
		rcvP(77, wire.Input{Instance: 9, X: wire.V(5)}),
	))
	if n.Aware(9) {
		t.Fatal("stranger seeded an instance")
	}
}

// AddInput before the grid starts registers (or overrides) an instance.
func TestAddInputBeforeGrid(t *testing.T) {
	t.Parallel()
	n := New(1, []InputPair{{Instance: 3, X: wire.V(1)}}, Options{})
	n.AddInput(InputPair{Instance: 3, X: wire.V(2)}) // override
	n.AddInput(InputPair{Instance: 4, X: wire.V(9)}) // new
	if !n.Aware(3) || !n.Aware(4) {
		t.Fatal("AddInput did not register instances")
	}
	if x := n.inst[3].x; !x.Equal(wire.V(2)) {
		t.Fatalf("override failed: %v", x)
	}
}

// A node with no instances finishes after the first phase.
func TestEmptyRunFinishesAfterFirstPhase(t *testing.T) {
	t.Parallel()
	members := []ids.ID{1, 2, 3}
	n := memberNode(1, members, nil)
	for round := 1; round <= 4; round++ {
		stepLocal(n, round, simnet.Inbox{})
		if n.Done() {
			t.Fatalf("done before the phase completed (round %d)", round)
		}
	}
	stepLocal(n, 5, simnet.Inbox{})
	if !n.Done() {
		t.Fatal("empty run not done after first phase")
	}
}

// However a round's messages are split between the shared block (read
// payload-major) and the private segment (read one at a time) — all
// private as on a link-fault round, all broadcast, or alternating — one
// instance's tally and the coordinator's per-instance opinions come out
// the same: strangers and foreign instances ignored, a double vote
// counted under both values with its sender present once, and a
// coordinator that equivocates taken at its greatest encoding.
func TestTallyAndCoordinatorOpinionsAgreeAcrossDeliveryShapes(t *testing.T) {
	t.Parallel()
	msgs := []simnet.Received{
		rcvP(2, wire.Input{Instance: 9, X: wire.V(1)}),
		rcvP(3, wire.Input{Instance: 9, X: wire.V(1)}),
		rcvP(4, wire.Input{Instance: 9, X: wire.V(2)}),
		rcvP(5, wire.Input{Instance: 9, X: wire.V(1)}), // double vote
		rcvP(5, wire.Input{Instance: 9, X: wire.V(3)}),
		rcvP(99, wire.Input{Instance: 9, X: wire.V(1)}), // stranger
		rcvP(3, wire.Input{Instance: 8, X: wire.V(1)}),  // another instance
		rcvP(4, wire.Prefer{Instance: 9, X: wire.V(1)}), // another family
		rcvP(2, wire.Opinion{Instance: 9, X: wire.V(2)}),
		rcvP(2, wire.Opinion{Instance: 9, X: wire.V(1)}), // encodes after opinion(2)
		rcvP(2, wire.Opinion{Instance: 7, X: wire.V(5)}),
		rcvP(3, wire.Opinion{Instance: 9, X: wire.V(6)}), // not the coordinator
	}
	for i, inbox := range spec.Shapes(msgs) { // all private, all broadcast, alternating
		n := memberNode(7, []ids.ID{2, 3, 4, 5, 6, 7}, []InputPair{{Instance: 9, X: wire.V(1)}})
		tally := n.tally(n.inst[9], &n.votes, &inbox, rotor.Count(&inbox, n.frozen.Members(), &n.ranks), wire.KindInput)
		got := make(map[wire.ValueKey]int)
		for v, c := range tally.All() {
			got[v.Key()] += c
		}
		// 6 and 7 sent nothing: first receipt of the family fills ⊥.
		want := map[wire.ValueKey]int{wire.V(1).Key(): 3, wire.V(2).Key(): 1, wire.V(3).Key(): 1, wire.Bot().Key(): 2}
		if !maps.Equal(got, want) {
			t.Fatalf("shape %d: tally %v, want %v", i, got, want)
		}
		// The first rotor round of a scoped run selects the smallest
		// member, 2; the reader yields ascending, so the last opinion
		// per instance is the one that counts.
		for round := 1; round <= 4; round++ {
			stepLocal(n, round, simnet.Inbox{})
		}
		opinions := make(map[uint64]wire.Value)
		n.core.Opinions(&inbox, rotor.Count(&inbox, n.frozen.Members(), &n.ranks), func(op wire.Opinion) { opinions[op.Instance] = op.X })
		if len(opinions) != 2 || !opinions[9].Equal(wire.V(1)) || !opinions[7].Equal(wire.V(5)) {
			t.Fatalf("shape %d: coordinator opinions %v, want 9:1 7:5", i, opinions)
		}
	}
}

// First contact is decided by the first census member to name an
// instance, in inbox order, and by nothing else: not by a stranger that
// names it earlier, not by a later member whose message would have been
// the other verdict, and not by whether the messages came through the
// shared block, the private segment or both. In every (phase, round)
// window and every delivery shape, asking the payloads first leaves the
// instance tables that Algorithm 5's rule as the paper states it
// (spec.FirstContact, a walk of every delivery) leaves.
func TestFirstContactMatchesPerDeliveryWalkAcrossShapes(t *testing.T) {
	t.Parallel()
	msgs := []simnet.Received{
		// Instance 9: a stranger first in id order, then a member with a
		// kind joinable in PR3 only, then one joinable in PR2 only.
		rcvP(1, wire.Input{Instance: 9, X: wire.V(1)}),
		rcvP(3, wire.Prefer{Instance: 9, X: wire.V(1)}),
		rcvP(4, wire.Input{Instance: 9, X: wire.V(1)}),
		// Instance 8: the same two kinds the other way round.
		rcvP(3, wire.Input{Instance: 8, X: wire.V(2)}),
		rcvP(4, wire.Prefer{Instance: 8, X: wire.V(2)}),
		// Instance 7: one member, both kinds; its encoding order decides.
		rcvP(6, wire.Prefer{Instance: 7, X: wire.V(3)}),
		rcvP(6, wire.Input{Instance: 7, X: wire.V(3)}),
		// Instance 6: a marker joinable in PR4 only, then a kind that
		// never is.
		rcvP(2, wire.NoStrongPreference{Instance: 6}),
		rcvP(4, wire.Opinion{Instance: 6, X: wire.V(4)}),
		// Named by strangers only, already joined, outside the filter.
		rcvP(1, wire.Input{Instance: 5, X: wire.V(5)}),
		rcvP(99, wire.Prefer{Instance: 5, X: wire.V(5)}),
		rcvP(3, wire.Input{Instance: 4, X: wire.V(6)}),
		rcvP(3, wire.Input{Instance: 1<<32 | 3, X: wire.V(7)}),
		rcvP(2, wire.Init{}),
	}
	members := []ids.ID{2, 3, 4, 5, 6}
	tables := func(n *Node) (joined, ignored []uint64) {
		for _, ins := range n.order {
			if n.inst[ins.id] != ins {
				t.Fatalf("order and inst disagree on instance %d", ins.id)
			}
			joined = append(joined, ins.id)
		}
		if len(joined) != len(n.inst) {
			t.Fatalf("order holds %d instances, inst %d", len(joined), len(n.inst))
		}
		return joined, slices.Sorted(maps.Keys(n.ignored))
	}
	for shape, inbox := range spec.Shapes(msgs) {
		verdicts := make(map[string]bool) // which (joined, ignored) outcomes the windows produced
		for phase := 0; phase < 2; phase++ {
			for pr := 0; pr < 5; pr++ {
				n := New(5, []InputPair{{Instance: 4, X: wire.V(6)}}, Options{
					Scope:     NewScope(ids.NewSet(members...)),
					Instances: InstanceRange{To: 1 << 32},
				})
				n.scanAwareness(&inbox, phase, pr)
				join, ignore := spec.FirstContact(inbox, phase, pr, func(p ids.ID) bool { return slices.Contains(members, p) },
					func(id uint64) bool { return id == 4 || id >= 1<<32 })
				wantJoined, wantIgnored := slices.Sorted(slices.Values(append(join, 4))), slices.Sorted(slices.Values(ignore))
				gotJoined, gotIgnored := tables(n)
				if !slices.Equal(gotJoined, wantJoined) || !slices.Equal(gotIgnored, wantIgnored) {
					t.Fatalf("shape %d, phase %d PR%d: joined %v ignored %v, the spec's rule leaves %v and %v",
						shape, phase, pr+1, gotJoined, gotIgnored, wantJoined, wantIgnored)
				}
				if len(gotJoined)+len(gotIgnored) != 5 { // 4 input + 9, 8, 7, 6 met
					t.Fatalf("shape %d, phase %d PR%d: joined %v ignored %v: an instance went unmet or a stranger's was met",
						shape, phase, pr+1, gotJoined, gotIgnored)
				}
				verdicts[fmt.Sprint(gotJoined, gotIgnored)] = true

				// A second inbox naming nothing new changes nothing.
				n.scanAwareness(&inbox, phase, pr)
				if j, i := tables(n); !slices.Equal(j, gotJoined) || !slices.Equal(i, gotIgnored) {
					t.Fatalf("shape %d, phase %d PR%d: a repeated inbox moved the tables to %v and %v", shape, phase, pr+1, j, i)
				}
			}
		}
		// PR2, PR3 and PR4 of the first phase each join something
		// different; every other window ignores all four.
		if len(verdicts) != 4 {
			t.Fatalf("shape %d: the windows produced %d distinct outcomes, want 4: %v", shape, len(verdicts), verdicts)
		}
	}
}
