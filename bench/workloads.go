package main

import (
	"fmt"
	"math/rand"

	"uba"
)

// sizes fixes every workload's input size. fullSizes is what the
// benchmark measures; smallSizes lets the tests run one op of every
// workload in well under a second.
type sizes struct {
	// consensus-*: g correct nodes with inputs i%2 and f silent
	// Byzantine nodes.
	ConsensusCorrect, ConsensusByz int
	Campaign                       campaignSpec
	// ordering-session: founders, silent Byzantine founders, rounds
	// driven one at a time, events submitted in rounds 1..Submit, two
	// joins and one leave of the first joiner.
	OrderingCorrect, OrderingByz   int
	OrderingRounds, OrderingSubmit int
	OrderingJoinAt                 [2]int
	OrderingLeaveAt                int
}

// fullSizes stops at n=128: an observed n=256 consensus costs 19 s and
// 4.7 GB per op today, which no shared two-core host can loop on.
var fullSizes = sizes{
	ConsensusCorrect: 86, ConsensusByz: 42,
	Campaign:        campaignSpec{Seeds: 4, Correct: 7, Byzantine: 2, MaxRounds: 400},
	OrderingCorrect: 22, OrderingByz: 10,
	OrderingRounds: 200, OrderingSubmit: 100,
	OrderingJoinAt: [2]int{20, 50}, OrderingLeaveAt: 120,
}

var smallSizes = sizes{
	ConsensusCorrect: 9, ConsensusByz: 4,
	Campaign:        campaignSpec{Seeds: 1, Correct: 7, Byzantine: 2, MaxRounds: 100},
	OrderingCorrect: 4, OrderingByz: 1,
	OrderingRounds: 70, OrderingSubmit: 20,
	OrderingJoinAt: [2]int{5, 10}, OrderingLeaveAt: 30,
}

func sizesFor(small bool) sizes {
	if small {
		return smallSizes
	}
	return fullSizes
}

// seedsPerRun is how many Config.Seed values a run cycles through:
// S*1000+k for the benchmark seed S.
const seedsPerRun = 8

func derivedSeed(seed int64, k int) int64 { return seed*1000 + int64(k%seedsPerRun) }

// workload is one closed-loop load: a single client that issues the
// next op only when the previous one has returned.
type workload struct {
	name string
	why  string
	// op runs one operation through the public entry points on one
	// derived seed, checks its output, and returns its simulated
	// statistics.
	op func(sz sizes, seed int64) (simStats, error)
	// fresh runs every op in a new process, so each pays a cold heap
	// and empty scratch pools the way a CLI user does.
	fresh bool
	// traced runs the same operation through the proxy harness, with
	// the facade's observer attached or on the observer-less harness.
	// nil for the campaign, whose cells are traced as a whole.
	traced func(sz sizes, seed int64, observe bool, log *spanLog, op int) (layers, error)
	// observed says whether the op itself attaches an observer; the
	// control workload does not, so its traced op is the observer-less
	// harness and its trace.* metrics are zero by construction.
	observed bool
	// nodes is the network size the op builds (correct, Byzantine).
	nodes func(sz sizes) (int, int)
}

var workloads = []workload{
	{
		name:     "consensus-oneshot",
		why:      "one uba.Consensus at n=128 per fresh process: cold heap, no pooled scratch, what a ubasim user pays; the observe layer does most of the work",
		op:       consensusOp,
		fresh:    true,
		traced:   tracedConsensusOp,
		observed: true,
		nodes:    consensusNodesOf,
	},
	{
		name:     "consensus-sweep",
		why:      "the same call back to back in one process: warm scratch pool, what sweeps and experiment tables pay; shows work only moved into pooled set-up",
		op:       consensusOp,
		traced:   tracedConsensusOp,
		observed: true,
		nodes:    consensusNodesOf,
	},
	{
		name:   "consensus-bare",
		why:    "the same nodes on a bare simnet.Network with no observer: bypasses the observe layer, so protocol Step is nearly all of it (control for observer changes)",
		op:     bareOp,
		traced: tracedConsensusOp,
		nodes:  consensusNodesOf,
	},
	{
		name:  "campaign-faults",
		why:   "24 tiny fault-plan cells over six families with full oracle suites through the shared scheduler: per-round fixed cost and scheduling dominate",
		op:    campaignOp,
		nodes: func(sz sizes) (int, int) { return sz.Campaign.Correct, sz.Campaign.Byzantine },
	},
	{
		name:     "ordering-session",
		why:      "a long-lived OrderingCluster driven round by round with joins, a leave, submits and interleaved reads: the interactive path a batch-run gain must not cost",
		op:       orderingOp,
		traced:   tracedOrderingOp,
		observed: true,
		nodes:    func(sz sizes) (int, int) { return sz.OrderingCorrect, sz.OrderingByz },
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func consensusNodesOf(sz sizes) (int, int) { return sz.ConsensusCorrect, sz.ConsensusByz }

func consensusInputs(sz sizes) []float64 {
	inputs := make([]float64, sz.ConsensusCorrect)
	for i := range inputs {
		inputs[i] = float64(i % 2)
	}
	return inputs
}

// checkDecision is the consensus output check: agreement is checked by
// the callee; validity requires the decision to be some correct input.
func checkDecision(decision float64, inputs []float64) error {
	for _, x := range inputs {
		if x == decision {
			return nil
		}
	}
	return fmt.Errorf("decision %v is no correct node's input", decision)
}

func consensusOp(sz sizes, seed int64) (simStats, error) {
	inputs := consensusInputs(sz)
	res, err := uba.Consensus(uba.Config{
		Correct:   sz.ConsensusCorrect,
		Byzantine: sz.ConsensusByz,
		Adversary: uba.AdversarySilent,
		Seed:      seed,
	}, inputs)
	if err != nil {
		return simStats{}, err
	}
	return statsOf(res.Report), checkDecision(res.Decision, inputs)
}

func bareOp(sz sizes, seed int64) (simStats, error) {
	inputs := consensusInputs(sz)
	decision, st, err := bareConsensus(seed, inputs, sz.ConsensusByz)
	if err != nil {
		return simStats{}, err
	}
	return st, checkDecision(decision, inputs)
}

func tracedConsensusOp(sz sizes, seed int64, observe bool, log *spanLog, op int) (layers, error) {
	inputs := consensusInputs(sz)
	decision, l, err := tracedConsensus(seed, inputs, sz.ConsensusByz, observe, log, op)
	if err != nil {
		return l, err
	}
	return l, checkDecision(decision, inputs)
}

// campaignOp ignores the seed: chaos.RunCampaign hard-codes its cell
// seeds to 1..Seeds, so every op of this workload is the same campaign.
func campaignOp(sz sizes, _ int64) (simStats, error) {
	st, err := runCampaign(sz.Campaign, 0)
	if err != nil {
		return simStats{}, err
	}
	if want := sz.Campaign.cells(); st.Runs != want {
		return st, fmt.Errorf("campaign ran %d cells, want %d", st.Runs, want)
	}
	return st, nil
}

// orderingHandle is what the ordering session drives: the public
// uba.OrderingCluster, or the traced harness's rebuild of it.
type orderingHandle interface {
	Members() []uint64
	RunRounds(rounds int) error
	SubmitEvent(member uint64, value float64) error
	Join() (uint64, error)
	Leave(member uint64) error
	Chain(member uint64) ([]uba.Event, error)
	FinalizedThrough(member uint64) (uint64, error)
}

func orderingOp(sz sizes, seed int64) (simStats, error) {
	oc, err := uba.NewOrderingCluster(uba.Config{
		Correct:   sz.OrderingCorrect,
		Byzantine: sz.OrderingByz,
		Seed:      seed,
	})
	if err != nil {
		return simStats{}, err
	}
	defer oc.Close()
	if _, err := orderingSession(oc, sz, seed); err != nil {
		return simStats{}, err
	}
	return statsOf(oc.Report()), nil
}

func tracedOrderingOp(sz sizes, seed int64, observe bool, log *spanLog, op int) (layers, error) {
	o, err := newTracedOrdering(seed, sz.OrderingCorrect, sz.OrderingByz, observe, log, op)
	if err != nil {
		return layers{}, err
	}
	_, err = orderingSession(o, sz, seed)
	return o.finish(), err
}

// orderingSession is one interactive session: writes (a submit per
// round, two joins, a leave) beside reads (FinalizedThrough of a
// rotating member every round, every member's Chain every tenth
// round). Who submits what is the generated input, drawn from seed. It
// returns the founders' common chain after checking that every
// surviving member agrees with it and that every submitted event is in
// it.
func orderingSession(h orderingHandle, sz sizes, seed int64) ([]uba.Event, error) {
	rng := rand.New(rand.NewSource(seed))
	founders := h.Members()
	var joiners []uint64
	for r := 1; r <= sz.OrderingRounds; r++ {
		if r <= sz.OrderingSubmit {
			if err := h.SubmitEvent(founders[rng.Intn(len(founders))], float64(rng.Intn(1000))); err != nil {
				return nil, err
			}
		}
		if r == sz.OrderingJoinAt[0] || r == sz.OrderingJoinAt[1] {
			id, err := h.Join()
			if err != nil {
				return nil, err
			}
			joiners = append(joiners, id)
		}
		if r == sz.OrderingLeaveAt {
			if err := h.Leave(joiners[0]); err != nil {
				return nil, err
			}
		}
		if err := h.RunRounds(1); err != nil {
			return nil, err
		}
		if _, err := h.FinalizedThrough(founders[r%len(founders)]); err != nil {
			return nil, err
		}
		if r%10 == 0 {
			for _, m := range h.Members() {
				if _, err := h.Chain(m); err != nil {
					return nil, err
				}
			}
		}
	}

	ref, err := h.Chain(founders[0])
	if err != nil {
		return nil, err
	}
	if len(ref) < sz.OrderingSubmit {
		return nil, fmt.Errorf("chain holds %d events, want at least %d", len(ref), sz.OrderingSubmit)
	}
	// A founder's chain is the whole history; the surviving joiner's
	// starts at its first round, so it must be a tail of the same chain.
	survivors := append(append([]uint64(nil), founders[1:]...), joiners[1])
	for _, m := range survivors {
		chain, err := h.Chain(m)
		if err != nil {
			return nil, err
		}
		isFounder := m != joiners[1]
		if len(chain) == 0 || len(chain) > len(ref) || (isFounder && len(chain) != len(ref)) {
			return nil, fmt.Errorf("member %d holds %d events, founder %d holds %d", m, len(chain), founders[0], len(ref))
		}
		tail := ref[len(ref)-len(chain):]
		for i := range chain {
			if chain[i] != tail[i] {
				return nil, fmt.Errorf("member %d disagrees with founder %d at event %d", m, founders[0], i)
			}
		}
	}
	return ref, nil
}
