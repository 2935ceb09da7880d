// Package renaming implements the paper's appendix algorithm for
// Byzantine renaming in the id-only model.
//
// Nodes start with unique but arbitrarily large, sparse identifiers and
// must consistently reassign themselves small names 1..|S|: every correct
// node ends with the same view of the participating id set S and outputs,
// for each member, its rank in S. The set is agreed upon with the
// reliable-broadcast echo mechanism of Algorithm 1 applied to identifiers
// (as in the rotor-coordinator), and termination is detected by observing
// two consecutive rounds in which S did not change, then agreeing on that
// observation — again in reliable-broadcast fashion — via terminate(k)
// messages.
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
	cen   census.Census
	ranks census.Ranks
	set   ids.Set // S

	// Distinct senders this round of echo(p) per identifier p, and of
	// terminate(k) per round k.
	echoes census.Window[ids.ID]
	terms  census.Window[uint64]

	changedThisRound bool
	changedLastRound bool
	everSilentPair   bool

	terminated bool
	termRound  int
}

var _ simnet.Process = (*Node)(nil)

// New returns a renaming participant.
func New(id ids.ID) *Node { return &Node{id: id} }

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.terminated }

// NewName returns this node's assigned compact name (1-based rank of its
// id in the final set S) once terminated.
func (n *Node) NewName() (int, bool) {
	if !n.terminated {
		return 0, false
	}
	rank, ok := n.set.Rank(n.id)
	if !ok {
		return 0, false
	}
	return rank + 1, true
}

// NameOf returns the new name assigned to the given original id.
func (n *Node) NameOf(id ids.ID) (int, bool) {
	if !n.terminated {
		return 0, false
	}
	rank, ok := n.set.Rank(id)
	if !ok {
		return 0, false
	}
	return rank + 1, true
}

// FinalSet returns the agreed id set once terminated.
func (n *Node) FinalSet() *ids.Set { return n.set.Clone() }

// FinalSetView returns the agreed id set itself rather than a copy: the
// read-only path of FinalSet, for callers that compare it and neither
// keep nor modify it.
func (n *Node) FinalSetView() *ids.Set { return &n.set }

// TerminationRound returns the round in which the node terminated.
func (n *Node) TerminationRound() int { return n.termRound }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	rotor.ObserveSenders(&n.cen, &env.Inbox)
	switch env.Round {
	case 1:
		env.Broadcast(wire.Init{})
	case 2:
		for m := range env.Inbox.All() {
			if _, ok := m.Payload.(wire.Init); ok {
				env.Broadcast(wire.IDEcho{Candidate: m.From})
			}
		}
	default:
		n.loopRound(env)
	}
}

func (n *Node) loopRound(env *simnet.RoundEnv) {
	nv := n.cen.N()
	view := rotor.Count(env.Inbox, n.cen.Members(), &n.ranks)
	rotor.Heard(env.Inbox, view, func(p wire.Payload, from rotor.Senders) {
		switch p := p.(type) {
		case wire.IDEcho:
			if p.Instance == 0 {
				if who, count := from.Ranks(); count > 0 {
					n.echoes.Add(p.Candidate, who)
				}
			}
		case wire.Terminate:
			if who, count := from.Ranks(); count > 0 {
				n.terms.Add(p.Round, who)
			}
		}
	})

	// Identifier agreement, reliable-broadcast style.
	n.changedLastRound = n.changedThisRound
	n.changedThisRound = false
	n.echoes.Fold(nv, cmp.Compare[ids.ID], n.set.Contains, func(p ids.ID, quorum bool) {
		env.Broadcast(wire.IDEcho{Candidate: p})
		if quorum {
			n.set.Add(p)
			n.changedThisRound = true
		}
	})

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
