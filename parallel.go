package uba

import (
	"fmt"
	"sort"

	"uba/internal/adversary"
	"uba/internal/core/parallelcon"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// Pair is a (instance, value) input or output of parallel consensus.
type Pair struct {
	Instance uint64
	Value    float64
}

// ParallelResult is the outcome of a ParallelConsensus run.
type ParallelResult struct {
	// Decided are the commonly decided pairs, sorted by instance.
	Decided []Pair
	// Rounds is the number of rounds until all correct nodes finished.
	Rounds int
	// Report is the traffic accounting.
	Report trace.Report
}

// ParallelConsensus runs Algorithm 5. inputs[i] holds the input pairs of
// correct node i — nodes need not agree on which instances exist; that is
// the point of the protocol. The result's Decided set is verified to be
// identical at every correct node.
func ParallelConsensus(cfg Config, inputs [][]Pair) (*ParallelResult, error) {
	if err := cfg.validateInputs(len(inputs), "input sets"); err != nil {
		return nil, err
	}
	cl, err := newCluster(cfg, "parallelcon")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nodes := make([]*parallelcon.Node, 0, cfg.Correct)
	for i, id := range cl.correctIDs {
		pairs := make([]parallelcon.InputPair, 0, len(inputs[i]))
		for _, p := range inputs[i] {
			pairs = append(pairs, parallelcon.InputPair{Instance: p.Instance, X: wire.V(p.Value)})
		}
		node := parallelcon.New(id, pairs, parallelcon.Options{})
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}

	valA, valB := 0.0, 1.0
	err = cl.addByzantine(func(id ids.ID, i int) simnet.Process {
		switch cfg.adversary() {
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
		return nil, fmt.Errorf("parallel consensus run: %w", err)
	}
	res := &ParallelResult{Rounds: rounds, Report: cl.report()}
	base := nodes[0].Outputs()
	for _, node := range nodes[1:] {
		got := node.Outputs()
		if len(got) != len(base) {
			return nil, fmt.Errorf("%w: pair sets differ in size", ErrDisagreement)
		}
		for i := range base {
			if got[i].Instance != base[i].Instance || !got[i].X.Equal(base[i].X) {
				return nil, fmt.Errorf("%w: pair %d differs", ErrDisagreement, i)
			}
		}
	}
	for _, p := range base {
		res.Decided = append(res.Decided, Pair{Instance: p.Instance, Value: p.X.X})
	}
	sort.Slice(res.Decided, func(i, j int) bool { return res.Decided[i].Instance < res.Decided[j].Instance })
	return res, nil
}
