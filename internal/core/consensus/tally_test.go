package consensus

import (
	"bytes"
	"maps"
	"testing"

	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// initNode builds a node with a frozen census of the given ids (driving
// the two real init rounds).
func initNode(t *testing.T, self ids.ID, censusIDs []ids.ID, input wire.Value) *Node {
	t.Helper()
	node := New(self, input)
	node.Step(&simnet.RoundEnv{Round: 1})
	inbox := make([]simnet.Received, 0, len(censusIDs))
	for _, id := range censusIDs {
		inbox = append(inbox, simnet.Received{From: id, Payload: wire.Init{}})
	}
	node.Step(&simnet.RoundEnv{Round: 2, Inbox: simnet.InboxOf(inbox...)})
	if node.NV() != len(censusIDs) {
		t.Fatalf("frozen n_v = %d, want %d", node.NV(), len(censusIDs))
	}
	return node
}

func rcv(from ids.ID, p wire.Payload) simnet.Received {
	return simnet.Received{From: from, Payload: p}
}

// tallyOf takes node's tally of kind over msgs through every delivery
// shape and fails unless they agree.
func tallyOf(t *testing.T, node *Node, kind wire.Kind, msgs ...simnet.Received) map[wire.ValueKey]int {
	t.Helper()
	var first map[wire.ValueKey]int
	for i, inbox := range spec.Shapes(msgs) {
		view := rotor.Count(inbox, node.frozen.Members(), &node.ranks)
		counts := countsOf(*node.tally(&node.votes, inbox, view, kind))
		if i == 0 {
			first = counts
		} else if !maps.Equal(counts, first) {
			t.Fatalf("delivery shape %d tallies %v, all-private %v", i, counts, first)
		}
	}
	return first
}

// atPR5 returns a node with the frozen census censusIDs that has run its
// first phase through PR4 hearing a different input from everyone, so no
// quorum forms and it stores no strongprefer, and everyone's echo of
// coordinator (ids.None: no echo), so its rotor round selects coordinator:
// the next Step, round 7, is a PR5 in which the coordinator's opinion, if
// one is accepted, is adopted.
func atPR5(t *testing.T, censusIDs []ids.ID, coordinator ids.ID) *Node {
	t.Helper()
	node := initNode(t, censusIDs[0], censusIDs, wire.V(0))
	var inputs, echoes []simnet.Received
	for _, id := range censusIDs {
		inputs = append(inputs, rcv(id, wire.Input{X: wire.V(float64(id))}))
		if coordinator != ids.None {
			echoes = append(echoes, rcv(id, wire.IDEcho{Candidate: coordinator}))
		}
	}
	node.Step(&simnet.RoundEnv{Round: 3})
	node.Step(&simnet.RoundEnv{Round: 4, Inbox: simnet.InboxOf(inputs...)})
	node.Step(&simnet.RoundEnv{Round: 5})
	node.Step(&simnet.RoundEnv{Round: 6, Inbox: simnet.InboxOf(echoes...)})
	if node.coordinator != coordinator {
		t.Fatalf("PR4 selected %v, want %v", node.coordinator, coordinator)
	}
	return node
}

// adoptedAtPR5 steps a fresh atPR5 node through PR5 on msgs in every
// delivery shape, fails unless the shapes agree, and returns the node's
// opinion after the phase and whether it adopted the coordinator's.
func adoptedAtPR5(t *testing.T, censusIDs []ids.ID, coordinator ids.ID, msgs ...simnet.Received) (wire.Value, bool) {
	t.Helper()
	var first PhaseRecord
	for i, inbox := range spec.Shapes(msgs) {
		node := atPR5(t, censusIDs, coordinator)
		node.Step(&simnet.RoundEnv{Round: 7, Inbox: inbox})
		rec := node.History()[0]
		if i == 0 {
			first = rec
		} else if rec != first {
			t.Fatalf("delivery shape %d ends the phase at %+v, all-private at %+v", i, rec, first)
		}
	}
	return first.X, first.AdoptedCoordinator
}

// countsOf spreads a tally into a map, so a test can ask for any one
// value's count and for the total.
func countsOf(t wire.Tally) map[wire.ValueKey]int {
	counts := make(map[wire.ValueKey]int)
	for v, n := range t.All() {
		counts[v.Key()] += n
	}
	return counts
}

// The substitution rule in isolation: after the node has sent an input,
// censused ids with no message of the kind contribute the node's own
// value; marker senders count as present and contribute nothing.
func TestTallySubstitutionSemantics(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3, 4, 5}
	node := initNode(t, 1, censusIDs, wire.V(7))

	// PR1: node broadcasts input(7); lastSent[input] = 7.
	node.Step(&simnet.RoundEnv{Round: 3})

	// Tally of an inbox where only 1 (self) and 2 sent inputs: ids 3,
	// 4, 5 are missing and substitute the node's own 7.
	counts := tallyOf(t, node, wire.KindInput,
		rcv(1, wire.Input{X: wire.V(7)}),
		rcv(2, wire.Input{X: wire.V(9)}),
	)
	if got := counts[wire.V(7).Key()]; got != 1+3 {
		t.Fatalf("count(7) = %d, want 4 (self + 3 substituted)", got)
	}
	if got := counts[wire.V(9).Key()]; got != 1 {
		t.Fatalf("count(9) = %d, want 1", got)
	}
}

func TestTallyMarkersPreventSubstitution(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3}
	node := initNode(t, 1, censusIDs, wire.V(5))
	// Simulate having sent a prefer previously.
	node.send(&simnet.RoundEnv{Round: 4}, wire.Prefer{X: wire.V(5)})

	// Node 2 sends a marker, node 3 is silent: only node 3 substitutes.
	counts := tallyOf(t, node, wire.KindPrefer,
		rcv(1, wire.Prefer{X: wire.V(5)}),
		rcv(2, wire.NoPreference{}),
	)
	if got := counts[wire.V(5).Key()]; got != 1+1 {
		t.Fatalf("count(5) = %d, want 2 (self + substituted node 3)", got)
	}
}

func TestTallyNoSubstitutionWithoutOwnSend(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3}
	node := initNode(t, 1, censusIDs, wire.V(5))
	// The node never sent a strongprefer: no fills for missing senders.
	counts := tallyOf(t, node, wire.KindStrongPrefer,
		rcv(2, wire.StrongPrefer{X: wire.V(1)}),
	)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1 {
		t.Fatalf("total counted %d, want only the real message", total)
	}
}

func TestTallyIgnoresStrangersAndForeignInstances(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3}
	node := initNode(t, 1, censusIDs, wire.V(5))
	counts := tallyOf(t, node, wire.KindInput,
		rcv(99, wire.Input{X: wire.V(1)}),             // stranger
		rcv(2, wire.Input{Instance: 7, X: wire.V(1)}), // tagged for another protocol
	)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 0 {
		t.Fatalf("counted %d messages, want 0", total)
	}
}

// Byzantine double-voting: two different values from one censused sender
// both count (the model allows distinct payloads in one round), but the
// sender is only "present" once, so no substitution is added for it.
func TestTallyDoubleVoteCountsBothValues(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2}
	node := initNode(t, 1, censusIDs, wire.V(0))
	node.Step(&simnet.RoundEnv{Round: 3}) // sends input(0)
	counts := tallyOf(t, node, wire.KindInput,
		rcv(1, wire.Input{X: wire.V(0)}),
		rcv(2, wire.Input{X: wire.V(3)}),
		rcv(2, wire.Input{X: wire.V(4)}),
	)
	if counts[wire.V(3).Key()] != 1 || counts[wire.V(4).Key()] != 1 {
		t.Fatalf("double vote miscounted: %+v", counts)
	}
	if counts[wire.V(0).Key()] != 1 {
		t.Fatalf("count(0) = %d, want 1 (no substitution: everyone present)",
			counts[wire.V(0).Key()])
	}
}

func TestCoordinatorOpinionRequiresCensusMember(t *testing.T) {
	t.Parallel()
	censusIDs := []ids.ID{1, 2, 3}
	// Everyone echoes 99, so it is selected — but it is not in the census.
	if _, ok := adoptedAtPR5(t, censusIDs, 99,
		rcv(99, wire.Opinion{X: wire.V(5)}),
	); ok {
		t.Fatal("opinion accepted from non-censused coordinator")
	}
	x, ok := adoptedAtPR5(t, censusIDs, 2,
		rcv(2, wire.Opinion{X: wire.V(5)}),
		rcv(3, wire.Opinion{X: wire.V(6)}), // not the coordinator
	)
	if !ok || !x.Equal(wire.V(5)) {
		t.Fatalf("coordinator opinion = (%v, %v)", x, ok)
	}
}

// A coordinator that sends several opinions is taken at the one with the
// greatest encoding, however the opinions are split between the shared
// block and the private segment and in whatever order the private
// segment holds them. Encoding order is not numeric order: opinion(1)
// encodes after opinion(2). Opinions tagged for another instance, which
// encode after both, are not this node's.
func TestCoordinatorOpinionTakesGreatestEncoding(t *testing.T) {
	t.Parallel()
	if bytes.Compare(wire.Encode(wire.Opinion{X: wire.V(1)}), wire.Encode(wire.Opinion{X: wire.V(2)})) <= 0 {
		t.Fatal("premise: opinion(1) must encode after opinion(2)")
	}
	for _, msgs := range [][]simnet.Received{
		{rcv(2, wire.Opinion{X: wire.V(1)}), rcv(2, wire.Opinion{X: wire.V(2)}), rcv(2, wire.Opinion{Instance: 4, X: wire.Bot()})},
		{rcv(2, wire.Opinion{X: wire.V(2)}), rcv(3, wire.Opinion{X: wire.Bot()}), rcv(2, wire.Opinion{X: wire.V(1)})},
	} {
		if x, ok := adoptedAtPR5(t, []ids.ID{1, 2, 3}, 2, msgs...); !ok || !x.Equal(wire.V(1)) {
			t.Fatalf("coordinator opinion = (%v, %v), want 1", x, ok)
		}
	}
}

// NewWithoutMarkers actually omits the markers (the ablation depends on
// the difference being real).
func TestWithoutMarkersSendsNothingOnNoQuorum(t *testing.T) {
	t.Parallel()
	count := func(node *Node) int {
		node.Step(&simnet.RoundEnv{Round: 1})
		node.Step(&simnet.RoundEnv{Round: 2, Inbox: simnet.InboxOf(
			rcv(1, wire.Init{}), rcv(2, wire.Init{}), rcv(3, wire.Init{}),
		)})
		node.Step(&simnet.RoundEnv{Round: 3}) // PR1 input
		// PR2 with an inbox giving no 2n_v/3 quorum for any value.
		env := &simnet.RoundEnv{Round: 4, Inbox: simnet.InboxOf(
			rcv(1, wire.Input{X: wire.V(1)}),
			rcv(2, wire.Input{X: wire.V(2)}),
			rcv(3, wire.Input{X: wire.V(3)}),
		)}
		node.Step(env)
		return env.SendCount()
	}
	withMarkers := count(New(1, wire.V(1)))
	withoutMarkers := count(NewWithoutMarkers(1, wire.V(1)))
	if withMarkers != 1 {
		t.Fatalf("marker variant sent %d messages at PR2, want 1 (the marker)", withMarkers)
	}
	if withoutMarkers != 0 {
		t.Fatalf("ablated variant sent %d messages at PR2, want 0", withoutMarkers)
	}
}
