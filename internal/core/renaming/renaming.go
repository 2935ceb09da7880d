// Package renaming implements the paper's appendix algorithm for
// Byzantine renaming in the id-only model.
//
// Nodes start with unique but arbitrarily large, sparse identifiers and
// must consistently reassign themselves small names 1..|S|: every correct
// node ends with the same view of the participating id set S and outputs,
// for each member, its rank in S. The set is agreed upon with the
// reliable-broadcast echo mechanism of Algorithm 1 applied to identifiers
// (as in the rotor-coordinator): S is the candidate set C_v of a
// rotor.Core, whose init and echo rounds and candidate fold (Core.Admit)
// renaming runs without ever selecting a coordinator. Termination is
// detected by observing two consecutive rounds in which S did not
// change, then agreeing on that observation — again in reliable-broadcast
// fashion — via terminate(k) messages, the one tally renaming keeps
// itself.
//
// Round complexity is O(f): at most 2f+1 rounds can be non-silent for
// some correct node, so by round 4f+3 of the loop two globally silent
// consecutive rounds have occurred and the terminate quorum forms.
package renaming

import (
	"cmp"

	"uba/internal/census"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Node is one correct renaming participant.
type Node struct {
	id    ids.ID
	core  *rotor.Core // S = C_v
	cen   census.Census
	ranks census.Ranks
	terms census.Window[uint64] // distinct senders this round of terminate(k) per round k

	changedThisRound bool
	changedLastRound bool

	terminated bool
	termRound  int
}

var _ simnet.Process = (*Node)(nil)

// New returns a renaming participant.
func New(id ids.ID) *Node { return &Node{id: id, core: rotor.NewCore(0)} }

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.terminated }

// NewName returns this node's assigned compact name (1-based rank of its
// id in the final set S) once terminated.
func (n *Node) NewName() (int, bool) { return n.NameOf(n.id) }

// NameOf returns the new name assigned to the given original id.
func (n *Node) NameOf(id ids.ID) (int, bool) {
	if !n.terminated {
		return 0, false
	}
	rank, ok := n.core.CandidatesView().Rank(id)
	if !ok {
		return 0, false
	}
	return rank + 1, true
}

// FinalSet returns the agreed id set once terminated.
func (n *Node) FinalSet() *ids.Set { return n.core.Candidates() }

// FinalSetView returns the agreed id set itself rather than a copy: the
// read-only path of FinalSet, for callers that compare it and neither
// keep nor modify it.
func (n *Node) FinalSetView() *ids.Set { return n.core.CandidatesView() }

// TerminationRound returns the round in which the node terminated.
func (n *Node) TerminationRound() int { return n.termRound }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	rotor.ObserveSenders(&n.cen, &env.Inbox)
	switch env.Round {
	case 1:
		n.core.BroadcastInit(env)
	case 2:
		n.core.EchoInits(&env.Inbox, env)
	default:
		n.loopRound(env)
	}
}

func (n *Node) loopRound(env *simnet.RoundEnv) {
	nv := n.cen.N()
	view := rotor.Count(&env.Inbox, n.cen.Members(), &n.ranks)
	n.core.NoteInbox(&env.Inbox, view)
	rotor.Heard(&env.Inbox, view, func(p wire.Payload, from rotor.Senders) {
		if t, ok := p.(wire.Terminate); ok {
			if who, count := from.Ranks(); count > 0 {
				n.terms.Add(t.Round, who)
			}
		}
	})

	// Identifier agreement: the echoes go out first, ascending.
	n.changedLastRound = n.changedThisRound
	n.changedThisRound = n.core.Admit(nv, env) > 0

	// Termination initiation: two consecutive silent rounds ending now.
	if env.Round >= 4 && !n.changedThisRound && !n.changedLastRound {
		env.Broadcast(wire.Terminate{Round: uint64(env.Round - 1)})
	}

	// Termination relay and quorum.
	n.terms.Fold(nv, cmp.Compare[uint64], nil, func(k uint64, quorum bool) {
		env.Broadcast(wire.Terminate{Round: k})
		if quorum {
			n.terminated = true
			n.termRound = env.Round
		}
	})
}
