package uba

import (
	"errors"
	"fmt"

	"uba/internal/adversary"
	"uba/internal/core/consensus"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// ErrDisagreement reports that correct nodes decided different values —
// impossible while n > 3f, observable when an experiment deliberately
// violates the bound.
var ErrDisagreement = errors.New("uba: correct nodes disagreed")

// ConsensusResult is the outcome of a Consensus run.
type ConsensusResult struct {
	// Decision is the common decided value.
	Decision float64
	// DecisionRounds maps each correct node (by input index) to its
	// termination round.
	DecisionRounds []int
	// Rounds is the total rounds until every correct node terminated.
	Rounds int
	// Report is the traffic accounting of the run.
	Report trace.Report
}

// Consensus runs Algorithm 3 (O(f)-round early-terminating consensus in
// the id-only model) with one correct node per input. AdversarySplit
// split-votes between the two smallest distinct input values (or 0/1 if
// the inputs are unanimous).
func Consensus(cfg Config, inputs []float64) (*ConsensusResult, error) {
	if err := cfg.validateInputs(len(inputs), "inputs"); err != nil {
		return nil, err
	}
	cl, err := newCluster(cfg, "consensus")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nodes := make([]*consensus.Node, 0, cfg.Correct)
	for i, id := range cl.correctIDs {
		node := consensus.New(id, wire.V(inputs[i]))
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}

	valA, valB := splitValues(inputs)
	err = cl.addByzantine(func(id ids.ID, i int) simnet.Process {
		switch cfg.adversary() {
		case AdversarySilent:
			return adversary.NewSilent(id)
		case AdversaryCrash:
			return adversary.NewCrash(consensus.New(id, wire.V(valA)), 5)
		case AdversarySplit:
			return adversary.NewSplitVoter(id, cl.dir, wire.V(valA), wire.V(valB))
		case AdversaryNoise:
			return adversary.NewRandomNoise(id, cl.dir, cfg.Seed+int64(i)+1)
		default:
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	rounds, err := cl.run(simnet.AllDone(cl.correctIDs))
	if err != nil {
		return nil, fmt.Errorf("consensus run: %w", err)
	}

	res := &ConsensusResult{
		Rounds:         rounds,
		DecisionRounds: make([]int, len(nodes)),
		Report:         cl.report(),
	}
	var first wire.Value
	for i, node := range nodes {
		out, ok := node.Output()
		if !ok {
			return nil, fmt.Errorf("uba: node %v did not decide", node.ID())
		}
		res.DecisionRounds[i] = node.DecidedRound()
		if i == 0 {
			first = out
			continue
		}
		if !out.Equal(first) {
			return nil, fmt.Errorf("%w: %v vs %v", ErrDisagreement, first, out)
		}
	}
	res.Decision = first.X
	return res, nil
}

// splitValues picks the two values an equivocating coalition pushes: the
// two smallest distinct correct inputs, or {0, 1} when unanimous.
func splitValues(inputs []float64) (float64, float64) {
	lo, hi, distinct := inputs[0], inputs[0], false
	for _, x := range inputs[1:] {
		if x != lo {
			distinct = true
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if !distinct {
		return 0, 1
	}
	return lo, hi
}
