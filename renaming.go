package uba

import (
	"fmt"
	"math/rand"

	"uba/internal/adversary"
	"uba/internal/core/renaming"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// RenamingResult is the outcome of a Renaming run.
type RenamingResult struct {
	// Names maps each correct node's original id to its new compact
	// name (consistent across all correct nodes).
	Names map[uint64]int
	// SetSize is the size of the agreed identifier set.
	SetSize int
	// Rounds is the number of rounds until all correct nodes finished.
	Rounds int
	// Report is the traffic accounting.
	Report trace.Report
}

// Renaming runs the appendix Byzantine-renaming algorithm: sparse ids in,
// compact consistent names out. AdversaryGhost injects non-existent
// identifiers into the set agreement.
func Renaming(cfg Config) (*RenamingResult, error) {
	cl, err := newCluster(cfg, "renaming")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nodes := make([]*renaming.Node, 0, cfg.Correct)
	for _, id := range cl.correctIDs {
		node := renaming.New(id)
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}
	ghosts := ids.Sparse(rand.New(rand.NewSource(cfg.Seed+31)), 2*cfg.Byzantine+2)
	err = cl.addByzantine(func(id ids.ID, i int) simnet.Process {
		switch cfg.adversary() {
		case AdversaryGhost:
			return adversary.NewGhostCandidate(id, cl.dir, ghosts)
		case AdversaryNoise:
			return adversary.NewRandomNoise(id, cl.dir, cfg.Seed+int64(i)+1)
		case AdversaryCrash:
			return adversary.NewCrash(renaming.New(id), 3)
		default:
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	rounds, err := cl.run(simnet.AllDone(cl.correctIDs))
	if err != nil {
		return nil, fmt.Errorf("renaming run: %w", err)
	}
	res := &RenamingResult{
		Names:  make(map[uint64]int, cfg.Correct),
		Rounds: rounds,
		Report: cl.report(),
	}
	base := nodes[0].FinalSetView()
	res.SetSize = base.Len()
	for _, node := range nodes {
		if !node.FinalSetView().Equal(base) {
			return nil, fmt.Errorf("%w: renaming sets differ", ErrDisagreement)
		}
		name, ok := node.NewName()
		if !ok {
			return nil, fmt.Errorf("uba: node %v has no name", node.ID())
		}
		res.Names[uint64(node.ID())] = name
	}
	return res, nil
}
