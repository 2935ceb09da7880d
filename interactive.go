package uba

import (
	"cmp"
	"fmt"
	"sort"

	"uba/internal/adversary"
	"uba/internal/core/vector"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// VectorEntry is one slot of an interactive-consistency vector.
type VectorEntry struct {
	// Node is the original node id the entry belongs to.
	Node uint64
	// Value is the agreed value for that node.
	Value float64
}

// VectorResult is the outcome of InteractiveConsistency.
type VectorResult struct {
	// Vector is the common agreed vector, sorted by node id. Every
	// correct node's own value is present (validity); entries of
	// Byzantine nodes may be present with an arbitrary-but-agreed value
	// or absent.
	Vector []VectorEntry
	// Rounds is the number of rounds until all correct nodes finished.
	Rounds int
	// Report is the traffic accounting.
	Report trace.Report
}

// InteractiveConsistency is the Discussion section's point made
// executable: agreement primitives "compile" into richer ones without
// re-introducing knowledge of n or f. Every node contributes one value
// under its own identifier and all correct nodes agree on the full
// vector. The construction batches the terminating-reliable-broadcast
// pattern over one ParallelConsensus run: round 1 disseminates each
// node's value under its engine-stamped identifier, round 2 turns each
// received contribution into the sender's slot, Algorithm 5 decides all
// slots in parallel (see internal/core/vector).
//
// Note the subtlety the id-only model adds: a node cannot even enumerate
// the vector's slots in advance (it does not know who exists); slots
// materialize through dissemination and the instance-awareness windows
// of Algorithm 5.
func InteractiveConsistency(cfg Config, inputs []float64) (*VectorResult, error) {
	if err := cmp.Or(cfg.validateInputs(len(inputs), "inputs"), notNaN(inputs)); err != nil {
		return nil, err
	}
	cl, err := newCluster(cfg, "vector")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nodes := make([]*vector.Node, 0, cfg.Correct)
	for i, id := range cl.correctIDs {
		node := vector.New(id, inputs[i])
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}
	err = cl.addByzantine(func(id ids.ID, i int) simnet.Process {
		switch cfg.adversary() {
		case AdversarySplit:
			return adversary.NewSplitVoter(id, cl.dir, wire.V(0), wire.V(1))
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
		return nil, fmt.Errorf("interactive consistency run: %w", err)
	}

	res := &VectorResult{Rounds: rounds, Report: cl.report()}
	base := nodes[0].Vector()
	for _, node := range nodes[1:] {
		got := node.Vector()
		if len(got) != len(base) {
			return nil, fmt.Errorf("%w: vector sizes differ", ErrDisagreement)
		}
		for i := range base {
			if got[i] != base[i] {
				return nil, fmt.Errorf("%w: vector slot %d differs", ErrDisagreement, i)
			}
		}
	}
	for _, e := range base {
		res.Vector = append(res.Vector, VectorEntry{Node: uint64(e.Node), Value: e.Value})
	}
	sort.Slice(res.Vector, func(i, j int) bool { return res.Vector[i].Node < res.Vector[j].Node })

	// Validity cross-check: every correct node's own value must appear.
	for i, id := range cl.correctIDs {
		found := false
		for _, e := range res.Vector {
			if e.Node == uint64(id) && e.Value == inputs[i] {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("uba: interactive consistency dropped correct node %v's value", id)
		}
	}
	return res, nil
}
