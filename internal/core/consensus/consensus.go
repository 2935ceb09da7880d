// Package consensus implements Algorithm 3 of the paper: O(f)-round
// early-terminating Byzantine consensus in the id-only model.
//
// Every correct node has a real-number input; every correct node must
// output a common value within a finite number of rounds, and if all
// correct inputs are equal the output must be that value. The algorithm
// generalizes the king/phase-king family: the known thresholds n−f and
// f+1 become 2n_v/3 and n_v/3, and the rotating king becomes the
// rotor-coordinator of Algorithm 2.
//
// Round structure: two initialization rounds (rotor init + echo, which
// also fix n_v — the census is frozen and later messages from ids outside
// it are discarded), then five-round phases:
//
//	PR1: broadcast input(x_v)
//	PR2: tally inputs; on a 2n_v/3 quorum for x, broadcast prefer(x)
//	PR3: tally prefers; at n_v/3 adopt x, at 2n_v/3 broadcast
//	     strongprefer(x)
//	PR4: tally strongprefers (stored for PR5); execute one
//	     rotor-coordinator round with x_v as the opinion
//	PR5: the coordinator's opinion(x) arrives; with no n_v/3
//	     strongprefer quorum adopt the coordinator's opinion; with a
//	     2n_v/3 strongprefer(x) quorum terminate and output x
//
// Missing-sender substitution (the paper's rule, from the Algorithm 3
// caption): a censused node that does not send an expected message in a
// loop round is assumed to have sent whatever this node itself sent in
// the previous round. This keeps tallies meaningful after other correct
// nodes terminate (they go silent one phase before the rest).
//
// Reproduction note: substitution is only sound if *correct* nodes are
// never spuriously missing — a correct node that simply lacked a quorum
// must be distinguishable from a silent (terminated or Byzantine) slot,
// or different receivers substitute different phantom opinions for it and
// quorum intersection breaks (our randomized adversarial tests found
// executions where this produced disagreement). Algorithm 5 introduces
// the nopreference/nostrongpreference markers for exactly this purpose;
// since a single-instance run of Algorithm 5 is Algorithm 3, this
// implementation uses the markers in Algorithm 3 as well.
package consensus

import (
	"uba/internal/census"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// PhaseRecord captures one phase for tests and experiments.
type PhaseRecord struct {
	// Phase is the 0-based phase index.
	Phase int
	// Coordinator is the rotor selection of this phase.
	Coordinator ids.ID
	// AdoptedCoordinator reports whether the node switched to the
	// coordinator's opinion in PR5.
	AdoptedCoordinator bool
	// X is the node's opinion at the end of the phase.
	X wire.Value
}

// Node is one correct consensus participant.
type Node struct {
	id ids.ID
	x  wire.Value

	core   *rotor.Core
	cen    census.Census
	frozen census.Frozen

	// lastSent remembers the node's own most recent message of each
	// tallied kind (indexed by wire.BallotSlot), for the substitution
	// rule.
	lastSent [wire.BallotKinds]wire.Value
	hasSent  [wire.BallotKinds]bool

	// ranks is the frozen census's rank table for the private segment
	// (rotor.Count); present marks the census ranks heard from in the
	// tally under way. Both are reused from round to round.
	ranks   census.Ranks
	present census.Marks

	// votes is the tally of PR2 and PR3; storedSP is the strongprefer
	// tally taken at PR4, resolved at PR5. Each is reset and refilled in
	// place, so a tally allocates only when it counts more values than
	// ever before.
	votes    wire.Tally
	storedSP wire.Tally

	coordinator ids.ID // selected at PR4 of the current phase

	phase   int
	decided bool
	output  wire.Value
	// decidedRound is the network round of termination.
	decidedRound int

	// noMarkers disables the nopreference/nostrongpreference markers —
	// deliberately unsound, kept for the marker-ablation experiment
	// that demonstrates why the markers are necessary.
	noMarkers bool

	history []PhaseRecord
}

var _ simnet.Process = (*Node)(nil)

// New returns a consensus participant with the given input.
func New(id ids.ID, input wire.Value) *Node {
	core := rotor.NewCore(0)
	core.SetCycling(true)
	return &Node{id: id, x: input, core: core}
}

// NewWithoutMarkers returns a deliberately weakened participant that
// omits the no-quorum markers: a correct node lacking a quorum is then
// indistinguishable from a silent slot, so receivers substitute their own
// divergent phantom opinions for it. This variant exists ONLY for the
// marker-ablation experiment (it can disagree under adversarial noise);
// never use it outside that context.
func NewWithoutMarkers(id ids.ID, input wire.Value) *Node {
	n := New(id, input)
	n.noMarkers = true
	return n
}

// SetInput replaces the node's input. It is only meaningful before the
// first phase begins (network round 3); terminating reliable broadcast
// uses it because its opinion — the message received from the source —
// only becomes known during round 2.
func (n *Node) SetInput(x wire.Value) { n.x = x }

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.decided }

// Output returns the decided value, if any.
func (n *Node) Output() (wire.Value, bool) { return n.output, n.decided }

// DecidedRound returns the network round in which the node terminated
// (0 if still running).
func (n *Node) DecidedRound() int { return n.decidedRound }

// Phases returns the number of complete phases executed.
func (n *Node) Phases() int { return n.phase }

// History returns per-phase records for analysis.
func (n *Node) History() []PhaseRecord {
	out := make([]PhaseRecord, len(n.history))
	copy(out, n.history)
	return out
}

// NV returns the frozen n_v (0 before initialization completes).
func (n *Node) NV() int { return n.frozen.N() }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		rotor.ObserveSenders(&n.cen, env.Inbox)
		n.core.BroadcastInit(env)
		return
	case 2:
		rotor.ObserveSenders(&n.cen, env.Inbox)
		n.core.EchoInits(env.Inbox, env)
		// Freeze n_v: ids heard during initialization are the
		// protocol's world; everything else is discarded later.
		n.frozen = n.cen.Freeze()
		return
	}

	// Loop rounds. Feed the rotor core every inbox (its candidate
	// echoes arrive one round after each rotor round executes).
	view := rotor.Count(env.Inbox, n.frozen.Members(), &n.ranks)
	n.core.NoteInbox(env.Inbox, view)

	switch (env.Round - 3) % 5 {
	case 0: // PR1: broadcast input
		n.send(env, wire.Input{X: n.x})
	case 1: // PR2: tally inputs, maybe prefer
		v, count := n.tally(&n.votes, env.Inbox, view, wire.KindInput).Best()
		if census.AtLeastTwoThirds(count, n.frozen.N()) {
			n.send(env, wire.Prefer{X: v})
		} else {
			// No quorum: announce it. Without the marker, other
			// correct nodes would substitute their own opinions for
			// this node (the rule exists for silent — terminated or
			// Byzantine — slots), creating receiver-specific phantom
			// counts that can break quorum intersection. Algorithm 5
			// introduces exactly these markers; a single-instance run
			// of it is Algorithm 3, so they belong here too.
			if !n.noMarkers {
				env.Broadcast(wire.NoPreference{})
			}
			n.hasSent[wire.BallotSlot(wire.KindPrefer)] = false
		}
	case 2: // PR3: tally prefers, maybe adopt and strongprefer
		v, count := n.tally(&n.votes, env.Inbox, view, wire.KindPrefer).Best()
		if census.AtLeastThird(count, n.frozen.N()) {
			n.x = v
		}
		if census.AtLeastTwoThirds(count, n.frozen.N()) {
			n.send(env, wire.StrongPrefer{X: v})
		} else {
			if !n.noMarkers {
				env.Broadcast(wire.NoStrongPreference{})
			}
			n.hasSent[wire.BallotSlot(wire.KindStrongPrefer)] = false
		}
	case 3: // PR4: store strongprefer tally, run a rotor round
		n.tally(&n.storedSP, env.Inbox, view, wire.KindStrongPrefer)
		n.coordinator = n.core.LoopRound(n.frozen.N(), env).Coordinator
		if n.coordinator == n.id {
			env.Broadcast(wire.Opinion{X: n.x})
		}
	case 4: // PR5: resolve against the coordinator, maybe terminate
		n.resolve(env, view)
	}
}

// resolve implements PR5: adopt the coordinator's opinion when no
// strongprefer value reached n_v/3, and terminate on a 2n_v/3 quorum.
func (n *Node) resolve(env *simnet.RoundEnv, view rotor.View) {
	v, count := n.storedSP.Best()
	adopted := false
	if census.LessThanThird(count, n.frozen.N()) {
		n.core.Opinions(env.Inbox, view, func(op wire.Opinion) {
			if op.Instance == 0 {
				n.x, adopted = op.X, true
			}
		})
	}
	if census.AtLeastTwoThirds(count, n.frozen.N()) {
		n.decided = true
		n.output = v
		n.decidedRound = env.Round
	}
	n.history = append(n.history, PhaseRecord{
		Phase:              n.phase,
		Coordinator:        n.coordinator,
		AdoptedCoordinator: adopted,
		X:                  n.x,
	})
	n.phase++
	n.storedSP.Reset()
}

// send broadcasts p and records it for the substitution rule.
func (n *Node) send(env *simnet.RoundEnv, p wire.Payload) {
	env.Broadcast(p)
	switch m := p.(type) {
	case wire.Input:
		n.sent(wire.KindInput, m.X)
	case wire.Prefer:
		n.sent(wire.KindPrefer, m.X)
	case wire.StrongPrefer:
		n.sent(wire.KindStrongPrefer, m.X)
	}
}

func (n *Node) sent(kind wire.Kind, x wire.Value) {
	n.lastSent[wire.BallotSlot(kind)] = x
	n.hasSent[wire.BallotSlot(kind)] = true
}

// tally counts the round's messages of the given kind from censused
// senders into t, which it empties first, applies the substitution rule
// for censused ids that sent nothing of that kind, and returns t.
func (n *Node) tally(t *wire.Tally, inbox simnet.Inbox, view rotor.View, kind wire.Kind) *wire.Tally {
	t.Reset()
	n.present = n.present.Cleared(n.frozen.N())
	Ballots(inbox, view, kind, 0, n.present, t)
	// Substitution: every censused id with no message of this kind this
	// round is assumed to have sent what this node sent last round.
	if n.hasSent[wire.BallotSlot(kind)] {
		if missing := n.frozen.N() - n.present.Count(); missing > 0 {
			t.Add(n.lastSent[wire.BallotSlot(kind)], missing)
		}
	}
	return t
}

// Ballots counts, by value, the ballots of one kind and instance in
// inbox into t, and adds to present the census rank of everyone who
// sent one — a no-quorum marker included, which is present without a
// value. The
// shared block is read as the engine counted it against the census
// (view) and the private segment one message at a time (rotor.Heard); a
// ballot counts once per (sender, payload) either way. Algorithm 5
// counts with it too: what differs between the two algorithms is what
// they substitute for the ranks left absent.
func Ballots(inbox simnet.Inbox, view rotor.View, kind wire.Kind, instance uint64, present census.Marks, t *wire.Tally) {
	rotor.Heard(inbox, view, func(p wire.Payload, from rotor.Senders) {
		if k, inst, x, opinion := wire.Ballot(p); k == kind && inst == instance {
			if who, count := from.Ranks(); count > 0 {
				if opinion {
					t.Add(x, count)
				}
				present.Or(who)
			}
		}
	})
}
