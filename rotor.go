package uba

import (
	"fmt"
	"math/rand"

	"uba/internal/adversary"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// RotorResult is the outcome of a Rotor run.
type RotorResult struct {
	// Rounds is the number of rounds until every correct node
	// terminated (the paper: O(n)).
	Rounds int
	// GoodRound is a round in which every correct node accepted the
	// opinion of a single, correct coordinator (0 if — impossibly under
	// n > 3f — none was observed).
	GoodRound int
	// Coordinators is the per-loop-round coordinator sequence observed
	// by correct node 0.
	Coordinators []ids.ID
	// Report is the traffic accounting.
	Report trace.Report
}

// rotorOpinion fixes each node's opinion to a function of its id so the
// good round is detectable.
func rotorOpinion(id ids.ID) wire.Value { return wire.V(float64(id % 1000003)) }

// Rotor runs Algorithm 2 (the rotor-coordinator) to termination.
// AdversaryGhost feeds non-existent candidate identifiers to half the
// correct nodes, the attack the algorithm's counting argument is built
// to survive.
func Rotor(cfg Config) (*RotorResult, error) {
	cl, err := newCluster(cfg, "rotor")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nodes := make([]*rotor.Node, 0, cfg.Correct)
	for _, id := range cl.correctIDs {
		node := rotor.New(id, rotorOpinion(id))
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}
	ghosts := ids.Sparse(rand.New(rand.NewSource(cfg.Seed+997)), 2*cfg.Byzantine+4)
	err = cl.addByzantine(func(id ids.ID, i int) simnet.Process {
		switch cfg.adversary() {
		case AdversaryGhost:
			return adversary.NewGhostCandidate(id, cl.dir, ghosts)
		case AdversaryNoise:
			return adversary.NewRandomNoise(id, cl.dir, cfg.Seed+int64(i)+1)
		case AdversaryCrash:
			return adversary.NewCrash(rotor.New(id, rotorOpinion(id)), 4)
		default:
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	rounds, err := cl.run(simnet.AllDone(cl.correctIDs))
	if err != nil {
		return nil, fmt.Errorf("rotor run: %w", err)
	}

	res := &RotorResult{Rounds: rounds, Report: cl.report()}
	for _, sel := range nodes[0].Selections() {
		res.Coordinators = append(res.Coordinators, sel.Coordinator)
	}
	res.GoodRound = findGoodRound(nodes, cl.correctIDs)
	return res, nil
}

// findGoodRound locates a round where all correct nodes accepted the same
// correct coordinator's own opinion.
func findGoodRound(nodes []*rotor.Node, correctIDs []ids.ID) int {
	correct := ids.NewSet(correctIDs...)
	for _, a := range nodes[0].AcceptedOpinions() {
		if !correct.Contains(a.From) {
			continue
		}
		if !a.X.Equal(rotorOpinion(a.From)) {
			continue
		}
		common := true
		for _, other := range nodes[1:] {
			found := false
			for _, b := range other.AcceptedOpinions() {
				if b.Round == a.Round && b.From == a.From && b.X.Equal(a.X) {
					found = true
					break
				}
			}
			if !found {
				common = false
				break
			}
		}
		if common {
			return a.Round
		}
	}
	return 0
}
