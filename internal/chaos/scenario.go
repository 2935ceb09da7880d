package chaos

import (
	"fmt"
	"math/rand"
	"runtime"

	"uba/internal/adversary"
	"uba/internal/core/approx"
	"uba/internal/core/consensus"
	"uba/internal/core/ordering"
	"uba/internal/core/relbcast"
	"uba/internal/core/renaming"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/oracle"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// TwinEarlyDecide selects the planted-bug consensus protocol as the
// system under test (Scenario.Twin). It exists to validate the harness:
// a campaign over it must produce violations that shrink and replay.
const TwinEarlyDecide = "earlydecide"

// Scenario is one fully described chaos run: the protocol family, the
// number of correct nodes, the Byzantine coalition plan, and the seed
// fixing the id layout and inputs. It is the unit the shrinker minimizes
// and the JSON repro format replays — everything observable about the
// run is a deterministic function of this value.
type Scenario struct {
	// Arena is the protocol family under test.
	Arena Arena `json:"arena"`
	// Correct is the number of correct nodes (g).
	Correct int `json:"correct"`
	// Seed fixes the id layout and per-node inputs.
	Seed int64 `json:"seed"`
	// MaxRounds bounds the run; it is also the termination-oracle bound.
	MaxRounds int `json:"max_rounds"`
	// Twin optionally swaps the protocol implementation (TwinEarlyDecide
	// runs the planted-bug consensus; empty runs the real protocol).
	Twin string `json:"twin,omitempty"`
	// Slots is the Byzantine coalition plan, one spec per slot.
	Slots []SlotSpec `json:"slots,omitempty"`
	// Faults optionally schedules deterministic network faults for the
	// run — partitions, link loss, crash/recover churn (see
	// simnet.FaultPlan). When set, the liveness oracles are wrapped for
	// graceful degradation (oracle.NewDegraded): disrupted rounds are
	// not charged against termination bounds, while agreement and the
	// other safety oracles stay unconditional.
	Faults *simnet.FaultPlan `json:"faults,omitempty"`
}

// Outcome is what a scenario run produced.
type Outcome struct {
	// Rounds is how many rounds actually ran (the run stops early once
	// an oracle fires).
	Rounds int `json:"rounds"`
	// Violations are the oracle verdicts, in firing order.
	Violations []oracle.Violation `json:"violations,omitempty"`
}

// Fired reports whether the named oracle fired, returning its violation.
func (o *Outcome) Fired(oracleName string) (oracle.Violation, bool) {
	for _, v := range o.Violations {
		if v.Oracle == oracleName {
			return v, true
		}
	}
	return oracle.Violation{}, false
}

// arenaFixture is the per-family material Run needs: the correct
// processes, the oracle suite watching them, and a twin constructor for
// crash slots (nil when the family has no meaningful crash twin).
type arenaFixture struct {
	procs []simnet.Process
	suite *oracle.Suite
	twin  func(id ids.ID) simnet.Process
}

// Run executes one scenario: build the correct nodes and oracles for the
// arena, materialize the coalition, drive rounds until an oracle fires
// or MaxRounds is reached. The returned outcome is deterministic in s.
// A scenario is checked up front by the rules a decoded repro meets.
func Run(s Scenario) (*Outcome, error) {
	if err := validateScenario(&s); err != nil {
		return nil, fmt.Errorf("chaos: invalid scenario: %w", err)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	all := ids.Sparse(rng, s.Correct+len(s.Slots))
	correctIDs := all[:s.Correct]
	byzIDs := all[s.Correct:]
	dir := adversary.NewDirectory(all, byzIDs)

	fix, err := buildArena(s, correctIDs, all)
	if err != nil {
		return nil, err
	}
	// Every stock arena also runs under its family's registered
	// complexity contract (twin arenas run planted-bug protocols with no
	// contract).
	if fam := complexityFamily(s); fam != "" {
		if co := oracle.NewComplexityFor(fam, 0); co != nil {
			fix.suite.Add(co)
		}
	}
	if s.Faults != nil && len(s.Faults.Events) > 0 {
		// Liveness bounds measure rounds of usable network: suspend
		// them while the plan disrupts the network and for a short
		// recovery window after. Safety oracles stay unconditional.
		fix.suite.Wrap(degradeLiveness)
	}
	net := simnet.New(simnet.Config{MaxRounds: s.MaxRounds + 1, Observer: fix.suite, FaultPlan: s.Faults})
	// Close recycles the network's round buffers through the process-wide
	// scratch pool — in a campaign, thousands of cells (and every shrink
	// candidate) reuse the same high-water-mark buffers instead of each
	// re-growing them from nil.
	defer net.Close()
	for _, p := range fix.procs {
		if err := net.Add(p); err != nil {
			return nil, err
		}
	}
	for i, id := range byzIDs {
		p, err := Materialize(s.Slots[i], id, byzIDs, dir, fix.twin)
		if err != nil {
			return nil, err
		}
		if err := net.AddByzantine(p); err != nil {
			return nil, err
		}
	}
	rounds := 0
	for rounds < s.MaxRounds && !fix.suite.Failed() {
		if err := net.RunRound(); err != nil {
			return nil, err
		}
		rounds++
		// A campaign runs one cell per P and a cell never blocks, so
		// without this the collector's part-time mark workers — all it
		// has below four Ps — wait for the 10 ms forced preemption
		// while the cells allocate on: a cycle that needs 0.3 ms of
		// marking then overshoots its goal by several MB, or not,
		// depending on when it began. A round is the natural yield.
		runtime.Gosched()
	}
	return &Outcome{Rounds: rounds, Violations: fix.suite.Violations()}, nil
}

// complexityFamily maps an arena to the registry family its correct
// nodes implement, or "" for twin scenarios (their planted-bug
// protocols carry no contract).
func complexityFamily(s Scenario) string {
	if s.Twin != "" {
		return ""
	}
	switch s.Arena {
	case ArenaConsensus:
		return "consensus"
	case ArenaBroadcast:
		return "relbcast"
	case ArenaRotor:
		return "rotor"
	case ArenaApprox:
		return "approx"
	case ArenaRenaming:
		return "renaming"
	case ArenaOrdering:
		return "ordering"
	}
	return ""
}

// buildArena constructs the correct processes and oracles for the
// scenario's protocol family. Inputs are a deterministic function of the
// node's index, so they survive shrinking g.
func buildArena(s Scenario, correctIDs []ids.ID, all []ids.ID) (*arenaFixture, error) {
	if s.Twin == TwinEarlyDecide {
		if s.Arena != ArenaConsensus {
			return nil, fmt.Errorf("chaos: twin %q requires the consensus arena", s.Twin)
		}
		return buildEarlyDecide(correctIDs, s.MaxRounds), nil
	}
	if s.Twin != "" {
		return nil, fmt.Errorf("chaos: unknown twin %q", s.Twin)
	}
	switch s.Arena {
	case ArenaConsensus:
		nodes := make([]*consensus.Node, 0, len(correctIDs))
		inputs := make([]wire.Value, 0, len(correctIDs))
		for i, id := range correctIDs {
			in := wire.V(float64(i % 2))
			inputs = append(inputs, in)
			nodes = append(nodes, consensus.New(id, in))
		}
		return &arenaFixture{
			procs: procsOf(len(nodes), func(i int) simnet.Process { return nodes[i] }),
			suite: oracle.NewSuite(oracle.ForConsensus(nodes, inputs, s.MaxRounds)...),
			twin:  func(id ids.ID) simnet.Process { return consensus.New(id, wire.V(0)) },
		}, nil
	case ArenaBroadcast:
		body := []byte("chaos-payload")
		nodes := make([]*relbcast.Node, 0, len(correctIDs))
		for i, id := range correctIDs {
			if i == 0 {
				nodes = append(nodes, relbcast.NewSource(id, body))
			} else {
				nodes = append(nodes, relbcast.NewRelay(id))
			}
		}
		return &arenaFixture{
			procs: procsOf(len(nodes), func(i int) simnet.Process { return nodes[i] }),
			suite: oracle.NewSuite(oracle.ForBroadcast(nodes, ids.NewSet(correctIDs...))...),
			// Relbcast nodes never terminate on their own; a crash twin
			// is a plain relay.
			twin: func(id ids.ID) simnet.Process { return relbcast.NewRelay(id) },
		}, nil
	case ArenaRotor:
		opinionOf := func(id ids.ID) wire.Value { return wire.V(float64(id % 1000003)) }
		nodes := make([]*rotor.Node, 0, len(correctIDs))
		for _, id := range correctIDs {
			nodes = append(nodes, rotor.New(id, opinionOf(id)))
		}
		return &arenaFixture{
			procs: procsOf(len(nodes), func(i int) simnet.Process { return nodes[i] }),
			suite: oracle.NewSuite(oracle.ForRotor(nodes, s.MaxRounds)...),
			twin:  func(id ids.ID) simnet.Process { return rotor.New(id, opinionOf(id)) },
		}, nil
	case ArenaApprox:
		nodes := make([]*approx.Node, 0, len(correctIDs))
		lo, hi := 0.0, float64(len(correctIDs)-1)
		for i, id := range correctIDs {
			nodes = append(nodes, approx.New(id, float64(i)))
		}
		// One reduction round at least halves the correct range
		// (Lemma aa-Med); allow slack so the oracle states only what
		// the paper proves.
		eps := (hi - lo) / 2
		return &arenaFixture{
			procs: procsOf(len(nodes), func(i int) simnet.Process { return nodes[i] }),
			suite: oracle.NewSuite(oracle.ForApprox(nodes, eps, lo, hi, s.MaxRounds)...),
			twin:  func(id ids.ID) simnet.Process { return approx.New(id, lo) },
		}, nil
	case ArenaRenaming:
		nodes := make([]*renaming.Node, 0, len(correctIDs))
		for _, id := range correctIDs {
			nodes = append(nodes, renaming.New(id))
		}
		return &arenaFixture{
			procs: procsOf(len(nodes), func(i int) simnet.Process { return nodes[i] }),
			suite: oracle.NewSuite(oracle.ForRenaming(nodes, s.MaxRounds)...),
			twin:  func(id ids.ID) simnet.Process { return renaming.New(id) },
		}, nil
	case ArenaOrdering:
		members := ids.NewSet(all...)
		nodes := make([]*ordering.Node, 0, len(correctIDs))
		for i, id := range correctIDs {
			node, err := ordering.NewFounder(id, members)
			if err != nil {
				return nil, err
			}
			node.SubmitEvent(float64(i))
			nodes = append(nodes, node)
		}
		return &arenaFixture{
			procs: procsOf(len(nodes), func(i int) simnet.Process { return nodes[i] }),
			suite: oracle.NewSuite(oracle.ForOrdering(nodes)...),
			// Ordering founders participate until told to leave; a crash
			// twin is another founder (that never submits).
			twin: func(id ids.ID) simnet.Process {
				twinNode, err := ordering.NewFounder(id, members)
				if err != nil {
					// NewFounder only rejects out-of-range ids, which
					// ids.Sparse never produces; fall back to silence.
					return adversary.NewSilent(id)
				}
				return twinNode
			},
		}, nil
	default:
		return nil, fmt.Errorf("chaos: unknown arena %d", int(s.Arena))
	}
}

// buildEarlyDecide wires the planted-bug protocol with an agreement
// oracle over its outputs.
func buildEarlyDecide(correctIDs []ids.ID, bound int) *arenaFixture {
	nodes := make([]*earlyDecide, 0, len(correctIDs))
	for i, id := range correctIDs {
		nodes = append(nodes, newEarlyDecide(id, wire.V(float64(i%2))))
	}
	probe := func(emit func(oracle.Claim) bool) {
		for _, n := range nodes {
			if v, ok := n.Output(); ok {
				if !emit(oracle.Claim{Node: n.ID(), Key: oracle.Key{Kind: oracle.KeyDecision}, Value: oracle.OpinionValue(v)}) {
					return
				}
			}
		}
	}
	suite := oracle.NewSuite(
		oracle.NewAgreement("earlydecide-agreement", probe),
		oracle.NewTerminationBound("earlydecide-termination", bound, func() []ids.ID {
			var out []ids.ID
			for _, n := range nodes {
				if !n.Done() {
					out = append(out, n.ID())
				}
			}
			return out
		}),
	)
	return &arenaFixture{
		procs: procsOf(len(nodes), func(i int) simnet.Process { return nodes[i] }),
		suite: suite,
		twin:  func(id ids.ID) simnet.Process { return newEarlyDecide(id, wire.V(0)) },
	}
}

// procsOf adapts a typed node slice to []simnet.Process.
func procsOf(n int, at func(i int) simnet.Process) []simnet.Process {
	out := make([]simnet.Process, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, at(i))
	}
	return out
}
