// Package trb implements the paper's appendix algorithm for terminating
// reliable broadcast in the id-only model.
//
// Plain reliable broadcast (Algorithm 1) never terminates: with a faulty
// source, correct nodes cannot know whether an acceptance is still coming.
// Terminating reliable broadcast adds the termination property by reducing
// to consensus (Algorithm 3): in round 1 the source broadcasts (m, s) and
// everyone else announces themselves; in round 2 each node fixes its
// opinion — the message it received directly from the source, or the empty
// opinion ⊥ — and then the O(f)-round consensus decides a common opinion.
// Correctness, unforgeability and relay follow from consensus validity and
// agreement; termination from consensus termination.
//
// Opinions travel through consensus as real numbers, so message bodies are
// condensed to a 64-bit FNV-1a fingerprint (reinterpreted as the float's
// bit pattern; consensus compares opinions bitwise, so NaN patterns are
// harmless). The probability that a Byzantine source finds two bodies
// colliding under the fingerprint within a run is negligible for the
// simulator's purposes; the decided body itself is recovered from the
// bodies seen on the wire.
package trb

import (
	"hash/fnv"
	"math"

	"uba/internal/core/consensus"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Fingerprint condenses a message body to the consensus opinion value.
func Fingerprint(body []byte) wire.Value {
	h := fnv.New64a()
	_, _ = h.Write(body)
	return wire.V(math.Float64frombits(h.Sum64()))
}

// Node is one terminating-reliable-broadcast participant.
type Node struct {
	id       ids.ID
	source   ids.ID
	body     []byte // non-nil only at the source
	isSource bool

	con    *consensus.Node
	bodies map[wire.ValueKey][]byte // fingerprint key -> body seen on the wire
}

var _ simnet.Process = (*Node)(nil)

// NewSource returns the (correct) source, broadcasting body.
func NewSource(id ids.ID, body []byte) *Node {
	return &Node{
		id:       id,
		source:   id,
		isSource: true,
		body:     append([]byte(nil), body...),
		con:      consensus.New(id, wire.Bot()),
		bodies:   make(map[wire.ValueKey][]byte),
	}
}

// New returns a non-source participant expecting a broadcast from source.
func New(id, source ids.ID) *Node {
	return &Node{
		id:     id,
		source: source,
		con:    consensus.New(id, wire.Bot()),
		bodies: make(map[wire.ValueKey][]byte),
	}
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.con.Done() }

// Output returns the agreed outcome: ok is false until termination;
// delivered is false when the group agreed the source sent nothing (the
// empty opinion ⊥); body is the delivered message when this node knows
// the preimage of the agreed fingerprint.
func (n *Node) Output() (body []byte, delivered, ok bool) {
	v, decided := n.con.Output()
	if !decided {
		return nil, false, false
	}
	if v.IsBot {
		return nil, false, true
	}
	body, known := n.bodies[v.Key()]
	if !known {
		// Agreed on a fingerprint whose body this node never saw (only
		// possible with a Byzantine source); the decision stands but
		// the content is unknown here.
		return nil, true, true
	}
	return append([]byte(nil), body...), true, true
}

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		if n.isSource {
			env.Broadcast(wire.RBMessage{Source: n.id, Body: n.body})
			n.noteBody(n.body)
		}
		// The consensus init doubles as the "init" announcement of the
		// appendix pseudocode.
		n.con.Step(env)
	case 2:
		// Fix the opinion: the message received *directly from the
		// source* this round, or ⊥. Relay the body so that every node
		// learns the preimage of any fingerprint that might win
		// consensus (an equivocating source shows different bodies to
		// different halves; the relay is what lets the losing half
		// recover the winning content).
		for m := range env.Inbox.All() {
			rb, ok := m.Payload.(wire.RBMessage)
			if !ok || m.From != n.source || rb.Source != n.source {
				continue
			}
			n.noteBody(rb.Body)
			n.con.SetInput(Fingerprint(rb.Body))
			env.Broadcast(wire.RBMessage{Source: n.source, Body: rb.Body})
			break
		}
		n.con.Step(env)
	default:
		// Remember any body whose fingerprint we may later decide: each
		// distinct relay of the block once, whoever sent it.
		for _, g := range env.Inbox.Said() {
			n.notePayload(g.Payload)
		}
		for _, m := range env.Inbox.Direct() {
			n.notePayload(m.Payload)
		}
		n.con.Step(env)
	}
}

func (n *Node) notePayload(p wire.Payload) {
	if rb, ok := p.(wire.RBMessage); ok {
		n.noteBody(rb.Body)
	}
}

func (n *Node) noteBody(body []byte) {
	key := Fingerprint(body).Key()
	if _, ok := n.bodies[key]; !ok {
		n.bodies[key] = append([]byte(nil), body...)
	}
}
