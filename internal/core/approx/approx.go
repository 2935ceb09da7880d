// Package approx implements Algorithm 4 of the paper: approximate
// agreement in the id-only model.
//
// Each correct node has a real-number input; outputs must lie within the
// range of correct inputs, and the output range must be strictly smaller
// than the input range. The classic algorithm (Dolev et al.) discards the
// f smallest and f largest received values; without knowing f, a node
// discards ⌊n_v/3⌋ from each end, where n_v is the number of values it
// received. Lemma aa-Within shows ⌊n_v/3⌋ ≥ f_v (so every surviving
// extreme is bracketed by correct values) and Lemma aa-Med shows the
// median of the correct inputs always survives, which halves the range
// per round.
//
// The package provides the paper's single-round Node and an Iterated node
// that repeats the rule for a configurable number of rounds (halving the
// correct range each time), which is also the form used for dynamic
// networks (§8): membership may change between rounds and the lemmas
// continue to hold as long as n > 3f in every round.
package approx

import (
	"math"
	"sort"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Reduce applies the algorithm's one-round reduction rule to a multiset of
// received values: discard ⌊n/3⌋ smallest and largest, return the midpoint
// of the surviving extremes. It is exported because the rule itself (not
// just the protocol) is a reusable primitive — e.g. a node joining an
// already-converged system can run one reduction against any subset of
// nodes (Discussion section).
func Reduce(values []float64) (float64, bool) {
	if len(values) == 0 {
		return 0, false
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	discard := census.DiscardCount(len(sorted))
	kept := sorted[discard : len(sorted)-discard]
	if len(kept) == 0 {
		// Unreachable for n ≥ 1 since 2·⌊n/3⌋ < n, but keep the
		// guard explicit.
		return 0, false
	}
	return (kept[0] + kept[len(kept)-1]) / 2, true
}

// Node is the paper's single-shot protocol: broadcast the input, apply
// Reduce to whatever arrives, output.
type Node struct {
	id     ids.ID
	input  float64
	output float64
	nv     int
	done   bool
}

var _ simnet.Process = (*Node)(nil)

// New returns a single-shot approximate-agreement participant.
func New(id ids.ID, input float64) *Node {
	return &Node{id: id, input: input}
}

// ID implements simnet.Process.
func (n *Node) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Node) Done() bool { return n.done }

// Output returns the node's output once done.
func (n *Node) Output() (float64, bool) { return n.output, n.done }

// NV returns n_v = |R_v| observed in round 2.
func (n *Node) NV() int { return n.nv }

// Step implements simnet.Process.
func (n *Node) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		env.Broadcast(wire.Input{X: wire.V(n.input)})
	case 2:
		values := gatherInputs(env.Inbox)
		n.nv = len(values)
		if out, ok := Reduce(values); ok {
			n.output = out
			n.done = true
			return
		}
		// No values at all (empty network): fall back to own input.
		n.output = n.input
		n.done = true
	}
}

// Iterated runs the reduction for a fixed number of rounds: each round it
// broadcasts its current estimate and then replaces the estimate with the
// reduction of the received estimates. The correct-value range halves per
// round (Theorem 4), so Rounds = ⌈log2(range/ε)⌉ reaches ε-agreement.
type Iterated struct {
	id       ids.ID
	estimate float64
	rounds   int
	history  []float64
	done     bool
}

var _ simnet.Process = (*Iterated)(nil)

// NewIterated returns an iterated participant that performs rounds
// reduction steps.
func NewIterated(id ids.ID, input float64, rounds int) *Iterated {
	return &Iterated{id: id, estimate: input, rounds: rounds}
}

// ID implements simnet.Process.
func (n *Iterated) ID() ids.ID { return n.id }

// Done implements simnet.Process.
func (n *Iterated) Done() bool { return n.done }

// Estimate returns the node's current estimate; after Done it is the
// output.
func (n *Iterated) Estimate() float64 { return n.estimate }

// History returns the estimate after each completed reduction step.
func (n *Iterated) History() []float64 {
	out := make([]float64, len(n.history))
	copy(out, n.history)
	return out
}

// Step implements simnet.Process.
func (n *Iterated) Step(env *simnet.RoundEnv) {
	if env.Round > 1 {
		values := gatherInputs(env.Inbox)
		if out, ok := Reduce(values); ok {
			n.estimate = out
		}
		n.history = append(n.history, n.estimate)
		if len(n.history) >= n.rounds {
			n.done = true
			return
		}
	}
	env.Broadcast(wire.Input{X: wire.V(n.estimate)})
}

// gatherInputs extracts one input value per sender from an inbox. The
// model delivers at most one copy of identical payloads per sender, but a
// Byzantine sender may transmit several *different* values in one round;
// the algorithm's analysis assumes one value per faulty node per round, so
// the smallest value per sender is kept (any deterministic pick works —
// the adversary chose to equivocate and loses all but one vote). The
// inbox is ordered by sender, so each sender's values are one run, folded
// into its last slot of out.
func gatherInputs(inbox simnet.Inbox) []float64 {
	out := make([]float64, 0, inbox.Len())
	var from ids.ID // the sender of out's last value
	for m := range inbox.All() {
		in, ok := m.Payload.(wire.Input)
		// A NaN has no place in an ordered reduction; a Byzantine sender
		// transmitting one simply loses its vote (correct nodes never
		// send NaN).
		if !ok || in.Instance != 0 || in.X.IsBot || math.IsNaN(in.X.X) {
			continue
		}
		if last := len(out) - 1; last >= 0 && m.From == from {
			if in.X.X < out[last] {
				out[last] = in.X.X
			}
			continue
		}
		out = append(out, in.X.X)
		from = m.From
	}
	sort.Float64s(out)
	return out
}
