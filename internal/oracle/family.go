package oracle

import (
	"fmt"
	"strings"

	"uba/internal/core/approx"
	"uba/internal/core/consensus"
	"uba/internal/core/ordering"
	"uba/internal/core/relbcast"
	"uba/internal/core/renaming"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// This file builds the standard oracle set for each protocol family of
// the library. Every constructor takes the *correct* protocol nodes (the
// monitors state properties over correct nodes only; Byzantine slots may
// do anything) and returns oracles ready for a Suite.

// ForConsensus monitors a consensus run (Algorithm 3 / parallel
// consensus instance 0): agreement (no two decided nodes output
// different values), validity (every output was some node's input), and
// termination within `bound` rounds.
func ForConsensus(nodes []*consensus.Node, inputs []wire.Value, bound int) []Oracle {
	probe := func(emit func(Claim) bool) {
		for _, n := range nodes {
			if v, ok := n.Output(); ok {
				if !emit(Claim{Node: n.ID(), Key: Key{Kind: KeyDecision}, Value: OpinionValue(v)}) {
					return
				}
			}
		}
	}
	valid := make(map[Value]bool, len(inputs))
	for _, x := range inputs {
		valid[OpinionValue(x)] = true
	}
	return []Oracle{
		NewAgreement("consensus-agreement", probe),
		NewValidity("consensus-validity", probe, func(c Claim) bool { return valid[c.Value] }),
		NewTerminationBound("consensus-termination", bound, func() []ids.ID {
			return pendingIDs(len(nodes), func(i int) (ids.ID, bool) {
				return nodes[i].ID(), nodes[i].Done()
			})
		}),
	}
}

// ForBroadcast monitors reliable broadcast (Algorithm 1): unforgeability
// (no acceptance of a pair a correct source never sent) and totality
// (a pair accepted in round r is accepted everywhere by r+1).
func ForBroadcast(nodes []*relbcast.Node, correct *ids.Set) []Oracle {
	accepted := func(emit func(RBAcceptance) bool) {
		for _, n := range nodes {
			for acc := range n.Acceptances {
				if !emit(RBAcceptance{Node: n.ID(), Source: acc.Source, Body: acc.Body}) {
					return
				}
			}
		}
	}
	totality := func(round int, _ []trace.Event) *Violation {
		for _, n := range nodes {
			for acc := range n.Acceptances {
				if acc.Round+1 > round {
					continue // grace round still open
				}
				for _, other := range nodes {
					if _, ok := other.HasAccepted(acc.Source, acc.Body); !ok {
						return &Violation{
							Oracle: "broadcast-totality",
							Round:  round,
							Detail: fmt.Sprintf("node %d accepted (%q, %d) in round %d but node %d has not by round %d",
								n.ID(), acc.Body, acc.Source, acc.Round, other.ID(), round),
						}
					}
				}
			}
		}
		return nil
	}
	return []Oracle{
		NewNoForgedSender("broadcast-unforgeability", correct, accepted),
		NewFunc("broadcast-totality", totality),
	}
}

// ForRotor monitors the rotor-coordinator (Algorithm 2): agreement on
// accepted opinions (no two nodes accept different opinions from the
// same coordinator slot) and termination within `bound` rounds.
func ForRotor(nodes []*rotor.Node, bound int) []Oracle {
	probe := func(emit func(Claim) bool) {
		for _, n := range nodes {
			for a := range n.Opinions {
				key := Key{Kind: KeyOpinion, A: uint64(a.Round), B: uint64(a.From)}
				if !emit(Claim{Node: n.ID(), Key: key, Value: OpinionValue(a.X)}) {
					return
				}
			}
		}
	}
	return []Oracle{
		NewAgreement("rotor-agreement", probe),
		NewTerminationBound("rotor-termination", bound, func() []ids.ID {
			return pendingIDs(len(nodes), func(i int) (ids.ID, bool) {
				return nodes[i].ID(), nodes[i].Done()
			})
		}),
	}
}

// ForApprox monitors approximate agreement (Algorithm 4): outputs of
// terminated nodes within eps of each other, outputs inside the correct
// input range [lo, hi], and termination within `bound` rounds.
func ForApprox(nodes []*approx.Node, eps, lo, hi float64, bound int) []Oracle {
	band := func(round int, _ []trace.Event) *Violation {
		haveFirst := false
		var min, max float64
		var minNode, maxNode ids.ID
		for _, n := range nodes {
			out, ok := n.Output()
			if !ok {
				continue
			}
			if !haveFirst || out < min {
				min, minNode = out, n.ID()
			}
			if !haveFirst || out > max {
				max, maxNode = out, n.ID()
			}
			haveFirst = true
		}
		if haveFirst && max-min > eps {
			return &Violation{
				Oracle: "approx-agreement",
				Round:  round,
				Detail: fmt.Sprintf("outputs %g (node %d) and %g (node %d) differ by more than eps=%g",
					min, minNode, max, maxNode, eps),
			}
		}
		return nil
	}
	inRange := func(round int, _ []trace.Event) *Violation {
		for _, n := range nodes {
			x, ok := n.Output()
			if ok && (x < lo || x > hi) {
				return &Violation{
					Oracle: "approx-validity",
					Round:  round,
					Detail: fmt.Sprintf("node %d output %g outside correct input range [%g, %g]",
						n.ID(), x, lo, hi),
				}
			}
		}
		return nil
	}
	return []Oracle{
		NewFunc("approx-agreement", band),
		NewFunc("approx-validity", inRange),
		NewTerminationBound("approx-termination", bound, func() []ids.ID {
			return pendingIDs(len(nodes), func(i int) (ids.ID, bool) {
				return nodes[i].ID(), nodes[i].Done()
			})
		}),
	}
}

// ForRenaming monitors Byzantine renaming: terminated nodes agree on the
// final id set, new names are unique, every correct id is named, and
// termination within `bound` rounds.
func ForRenaming(nodes []*renaming.Node, bound int) []Oracle {
	probe := func(emit func(Claim) bool) {
		for _, n := range nodes {
			if !n.Done() {
				continue
			}
			if !emit(Claim{Node: n.ID(), Key: Key{Kind: KeyFinalSet}, Value: SetValue(n.FinalSetView())}) {
				return
			}
		}
	}
	// taken is looked up and cleared, never ranged.
	taken := make(map[int]ids.ID, len(nodes))
	unique := func(round int, _ []trace.Event) *Violation {
		clear(taken)
		for _, n := range nodes {
			name, ok := n.NewName()
			if !ok {
				continue
			}
			if prev, dup := taken[name]; dup {
				return &Violation{
					Oracle: "renaming-uniqueness",
					Round:  round,
					Detail: fmt.Sprintf("nodes %d and %d both renamed to %d", prev, n.ID(), name),
				}
			}
			taken[name] = n.ID()
		}
		return nil
	}
	return []Oracle{
		NewAgreement("renaming-agreement", probe),
		NewFunc("renaming-uniqueness", unique),
		NewTerminationBound("renaming-termination", bound, func() []ids.ID {
			return pendingIDs(len(nodes), func(i int) (ids.ID, bool) {
				return nodes[i].ID(), nodes[i].Done()
			})
		}),
	}
}

// ForOrdering monitors the dynamic total-ordering protocol: finalized
// chains are prefix-consistent across nodes (keyed by chain position, so
// nodes at different finalization horizons compare only the shared
// prefix).
//
// Precondition: positional keys assume every node's chain starts at the
// same round, i.e. the nodes are founders (as in chaos's ordering
// arena). A joiner's chain starts at its FirstRound and would have to be
// aligned before its positions mean what a founder's do; nothing here
// does that.
func ForOrdering(nodes []*ordering.Node) []Oracle {
	probe := func(emit func(Claim) bool) {
		for _, n := range nodes {
			for i, e := range n.Entries {
				if !emit(Claim{Node: n.ID(), Key: Key{Kind: KeyChain, A: uint64(i)}, Value: EntryValue(e)}) {
					return
				}
			}
		}
	}
	return []Oracle{NewAgreement("ordering-agreement", probe)}
}

// pendingIDs collects the ids of not-yet-done nodes.
func pendingIDs(n int, at func(i int) (ids.ID, bool)) []ids.ID {
	var out []ids.ID
	for i := 0; i < n; i++ {
		id, done := at(i)
		if !done {
			out = append(out, id)
		}
	}
	return out
}

// setString renders an id set for Violation details (members are
// sorted).
func setString(s *ids.Set) string {
	var b strings.Builder
	for i, id := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}
