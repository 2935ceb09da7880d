package uba

import (
	"fmt"

	"uba/internal/adversary"
	"uba/internal/core/relbcast"
	"uba/internal/core/trb"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// BroadcastResult is the outcome of a ReliableBroadcast run.
type BroadcastResult struct {
	// AcceptRounds maps each correct node (index order) to the round in
	// which it accepted the designated broadcast (0 = never accepted).
	AcceptRounds []int
	// AllAccepted reports whether every correct node accepted.
	AllAccepted bool
	// Rounds is the number of rounds executed (the horizon).
	Rounds int
	// Report is the traffic accounting.
	Report trace.Report
}

// ReliableBroadcast runs Algorithm 1 for a configurable horizon: correct
// node 0 is the source of body. Reliable broadcast itself never
// terminates (termination belongs to the embedding protocol), so the run
// executes `horizon` rounds and reports acceptance rounds.
//
// AdversarySplit makes the coalition's first member an equivocating
// source of its own (two bodies to two halves) alongside the correct
// broadcast; the other strategies behave as documented on their
// constants.
func ReliableBroadcast(cfg Config, body []byte, horizon int) (*BroadcastResult, error) {
	if horizon <= 0 {
		horizon = 12
	}
	cl, err := newCluster(cfg, "relbcast")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	nodes := make([]*relbcast.Node, 0, cfg.Correct)
	for i, id := range cl.correctIDs {
		var node *relbcast.Node
		if i == 0 {
			node = relbcast.NewSource(id, body)
		} else {
			node = relbcast.NewRelay(id)
		}
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}
	err = cl.addByzantine(func(id ids.ID, i int) simnet.Process {
		switch cfg.adversary() {
		case AdversarySplit:
			return adversary.NewRBEquivocator(id, cl.dir, cl.byzIDs[0],
				[]byte("split-A"), []byte("split-B"))
		case AdversaryNoise:
			return adversary.NewRandomNoise(id, cl.dir, cfg.Seed+int64(i)+1)
		case AdversaryCrash:
			return adversary.NewCrash(relbcast.NewRelay(id), 2)
		default:
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	for i := 0; i < horizon; i++ {
		if err := cl.net.RunRound(); err != nil {
			return nil, fmt.Errorf("reliable broadcast round: %w", err)
		}
	}
	if err := cl.complexityErr(); err != nil {
		return nil, err
	}
	res := &BroadcastResult{
		AcceptRounds: make([]int, len(nodes)),
		AllAccepted:  true,
		Rounds:       horizon,
		Report:       cl.report(),
	}
	source := cl.correctIDs[0]
	for i, node := range nodes {
		round, ok := node.HasAccepted(source, body)
		if !ok {
			res.AllAccepted = false
			continue
		}
		res.AcceptRounds[i] = round
	}
	return res, nil
}

// TRBResult is the outcome of a TerminatingBroadcast run.
type TRBResult struct {
	// Delivered reports the common decision: true if a message was
	// agreed delivered.
	Delivered bool
	// Body is the delivered content (nil when not delivered, or when a
	// Byzantine source equivocated a fingerprint no node can invert —
	// which the consensus layer prevents in practice).
	Body []byte
	// Rounds is the number of rounds until all correct nodes finished.
	Rounds int
	// Report is the traffic accounting.
	Report trace.Report
}

// TerminatingBroadcast runs the appendix terminating-reliable-broadcast.
// With sourceCorrect, correct node 0 broadcasts body; otherwise the first
// Byzantine node plays the source (silent under AdversarySilent,
// equivocating two bodies under AdversarySplit).
func TerminatingBroadcast(cfg Config, body []byte, sourceCorrect bool) (*TRBResult, error) {
	cl, err := newCluster(cfg, "trb")
	if err != nil {
		return nil, err
	}
	defer cl.close()
	if !sourceCorrect && len(cl.byzIDs) == 0 {
		return nil, fmt.Errorf("uba: faulty source requested with zero Byzantine nodes")
	}
	source := cl.correctIDs[0]
	if !sourceCorrect {
		source = cl.byzIDs[0]
	}
	nodes := make([]*trb.Node, 0, cfg.Correct)
	for i, id := range cl.correctIDs {
		var node *trb.Node
		if sourceCorrect && i == 0 {
			node = trb.NewSource(id, body)
		} else {
			node = trb.New(id, source)
		}
		nodes = append(nodes, node)
		if err := cl.net.Add(node); err != nil {
			return nil, err
		}
	}
	err = cl.addByzantine(func(id ids.ID, i int) simnet.Process {
		switch cfg.adversary() {
		case AdversarySplit:
			if id == source { // only a faulty source is a coalition member
				return adversary.NewRBEquivocator(id, cl.dir, source,
					[]byte("split-A"), []byte("split-B"))
			}
			return nil
		case AdversaryNoise:
			return adversary.NewRandomNoise(id, cl.dir, cfg.Seed+int64(i)+1)
		default:
			return nil // silent coalition (covers the crashed-source case)
		}
	})
	if err != nil {
		return nil, err
	}
	rounds, err := cl.run(simnet.AllDone(cl.correctIDs))
	if err != nil {
		return nil, fmt.Errorf("terminating broadcast run: %w", err)
	}
	res := &TRBResult{Rounds: rounds, Report: cl.report()}
	for i, node := range nodes {
		gotBody, delivered, ok := node.Output()
		if !ok {
			return nil, fmt.Errorf("uba: node %v did not terminate", node.ID())
		}
		if i == 0 {
			res.Delivered = delivered
			res.Body = gotBody
			continue
		}
		if delivered != res.Delivered || string(gotBody) != string(res.Body) {
			return nil, fmt.Errorf("%w: TRB outcomes differ", ErrDisagreement)
		}
	}
	return res, nil
}
