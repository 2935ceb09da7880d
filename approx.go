package uba

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"uba/internal/adversary"
	"uba/internal/core/approx"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// ApproxResult is the outcome of an ApproximateAgreement run.
type ApproxResult struct {
	// Outputs are the per-node outputs, in input order.
	Outputs []float64
	// InputLo/InputHi bound the correct inputs; OutputLo/OutputHi the
	// outputs. Theorem 4: [OutputLo, OutputHi] ⊆ [InputLo, InputHi] and
	// the output range is at most half the input range.
	InputLo, InputHi   float64
	OutputLo, OutputHi float64
	// Report is the traffic accounting.
	Report trace.Report
}

// RangeRatio returns (output range)/(input range), the per-round
// convergence factor (0 when the inputs are unanimous).
func (r *ApproxResult) RangeRatio() float64 {
	in := r.InputHi - r.InputLo
	if in == 0 {
		return 0
	}
	return (r.OutputHi - r.OutputLo) / in
}

// ApproximateAgreement runs Algorithm 4 single-shot. AdversarySplit sends
// opposite astronomically large values to the two halves of the correct
// nodes.
func ApproximateAgreement(cfg Config, inputs []float64) (*ApproxResult, error) {
	if err := cmp.Or(cfg.validateInputs(len(inputs), "inputs"), notNaN(inputs)); err != nil {
		return nil, err
	}
	cl, err := newCluster(cfg, "approx")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nodes := make([]*approx.Node, 0, cfg.Correct)
	for i, id := range cl.correctIDs {
		node := approx.New(id, inputs[i])
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}
	if err := cl.addApproxAdversary(cfg); err != nil {
		return nil, err
	}
	if _, err := cl.run(simnet.AllDone(cl.correctIDs)); err != nil {
		return nil, fmt.Errorf("approximate agreement run: %w", err)
	}
	res := &ApproxResult{Report: cl.report()}
	res.InputLo, res.InputHi = bounds(inputs)
	for _, node := range nodes {
		x, ok := node.Output()
		if !ok {
			return nil, fmt.Errorf("uba: node %v did not finish", node.ID())
		}
		res.Outputs = append(res.Outputs, x)
	}
	res.OutputLo, res.OutputHi = bounds(res.Outputs)
	return res, nil
}

// IteratedResult is the outcome of IteratedApproximateAgreement.
type IteratedResult struct {
	// Estimates are the final per-node estimates.
	Estimates []float64
	// RangePerRound traces the correct-estimate range after each
	// reduction step (index 0 = after the first step).
	RangePerRound []float64
	// Report is the traffic accounting.
	Report trace.Report
}

// IteratedApproximateAgreement repeats the Algorithm 4 reduction for the
// given number of rounds, halving the correct range each round.
func IteratedApproximateAgreement(cfg Config, inputs []float64, rounds int) (*IteratedResult, error) {
	if err := cmp.Or(cfg.validateInputs(len(inputs), "inputs"), notNaN(inputs)); err != nil {
		return nil, err
	}
	if rounds <= 0 {
		rounds = 8
	}
	cl, err := newCluster(cfg, "approx")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nodes := make([]*approx.Iterated, 0, cfg.Correct)
	for i, id := range cl.correctIDs {
		node := approx.NewIterated(id, inputs[i], rounds)
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}
	if err := cl.addApproxAdversary(cfg); err != nil {
		return nil, err
	}
	if _, err := cl.run(simnet.AllDone(cl.correctIDs)); err != nil {
		return nil, fmt.Errorf("iterated approximate agreement run: %w", err)
	}
	res := &IteratedResult{Report: cl.report()}
	for _, node := range nodes {
		res.Estimates = append(res.Estimates, node.Estimate())
	}
	for step := 0; step < rounds; step++ {
		ests := make([]float64, 0, len(nodes))
		for _, node := range nodes {
			h := node.History()
			if step < len(h) {
				ests = append(ests, h[step])
			}
		}
		lo, hi := bounds(ests)
		res.RangePerRound = append(res.RangePerRound, hi-lo)
	}
	return res, nil
}

func (c *cluster) addApproxAdversary(cfg Config) error {
	return c.addByzantine(func(id ids.ID, i int) simnet.Process {
		switch cfg.adversary() {
		case AdversarySplit:
			return adversary.NewInputSplitter(id, c.dir, -1e12, 1e12)
		case AdversaryNoise:
			return adversary.NewRandomNoise(id, c.dir, cfg.Seed+int64(i)+1)
		default:
			return nil
		}
	})
}

// notNaN fails on the first NaN of inputs: a node drops a NaN it
// receives, its own included, so a NaN input is never a node's value.
func notNaN(inputs []float64) error {
	if i := slices.IndexFunc(inputs, math.IsNaN); i >= 0 {
		return fmt.Errorf("uba: input %d is NaN", i)
	}
	return nil
}

func bounds(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
