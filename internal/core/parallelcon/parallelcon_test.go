package parallelcon

import (
	"fmt"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// withInputs builds correct node i of a fleet with the pairs inputs(i, id).
func withInputs(inputs func(i int, id ids.ID) []InputPair) func(int, ids.ID) *Node {
	return func(i int, id ids.ID) *Node { return New(id, inputs(i, id), Options{}) }
}

// bound is the network of a run of n nodes: 60 rounds a node and 200 more.
func bound(n int) simnet.Config { return simnet.Config{MaxRounds: 60*n + 200} }

// checkPairAgreement asserts that every correct node output exactly the
// same pair set.
func checkPairAgreement(t *testing.T, nodes []*Node) []OutputPair {
	t.Helper()
	base := nodes[0].Outputs()
	for _, node := range nodes[1:] {
		got := node.Outputs()
		if len(got) != len(base) {
			t.Fatalf("node %v output %d pairs, node %v output %d:\n%v\nvs\n%v",
				node.ID(), len(got), nodes[0].ID(), len(base), got, base)
		}
		for i := range base {
			if got[i].Instance != base[i].Instance || !got[i].X.Equal(base[i].X) {
				t.Fatalf("pair %d: %+v vs %+v", i, got[i], base[i])
			}
		}
	}
	return base
}

// Validity: a pair input at every correct node with the same non-⊥
// opinion is output by every correct node.
func TestCommonInputPairIsOutput(t *testing.T) {
	t.Parallel()
	inputs := func(i int, id ids.ID) []InputPair {
		return []InputPair{{Instance: 7, X: wire.V(3.25)}}
	}
	nodes, _ := spec.NewFleet(t, 1, 7, 2, bound(9), withInputs(inputs), spec.Silent).Run()
	pairs := checkPairAgreement(t, nodes)
	if len(pairs) != 1 || pairs[0].Instance != 7 || !pairs[0].X.Equal(wire.V(3.25)) {
		t.Fatalf("outputs = %+v, want [(7, 3.25)]", pairs)
	}
	// Unanimous inputs decide in the first phase: init (2) + 5 rounds.
	for _, node := range nodes {
		if r := node.DecisionRound(7); r != 7 {
			t.Fatalf("node %v decided instance 7 in round %d, want 7", node.ID(), r)
		}
	}
}

// Several common instances decide in parallel, in the same phase, rather
// than sequentially — the point of the construction.
func TestManyInstancesDecideInParallel(t *testing.T) {
	t.Parallel()
	const k = 8
	inputs := func(i int, id ids.ID) []InputPair {
		pairs := make([]InputPair, 0, k)
		for inst := uint64(1); inst <= k; inst++ {
			pairs = append(pairs, InputPair{Instance: inst, X: wire.V(float64(inst * 10))})
		}
		return pairs
	}
	nodes, rounds := spec.NewFleet(t, 2, 7, 2, bound(9), withInputs(inputs), spec.Silent).Run()
	pairs := checkPairAgreement(t, nodes)
	if len(pairs) != k {
		t.Fatalf("output %d pairs, want %d", len(pairs), k)
	}
	for _, node := range nodes {
		for inst := uint64(1); inst <= k; inst++ {
			if r := node.DecisionRound(inst); r != 7 {
				t.Fatalf("instance %d decided in round %d, want 7 (parallel)", inst, r)
			}
		}
	}
	if rounds > 10 {
		t.Fatalf("k=%d instances took %d rounds; they must share phases", k, rounds)
	}
}

// A pair input at only one correct node still reaches every correct node:
// they join via the id:input window and agree on the outcome.
func TestPartiallyKnownInstanceAgreement(t *testing.T) {
	t.Parallel()
	inputs := func(i int, id ids.ID) []InputPair {
		if i == 0 {
			return []InputPair{{Instance: 42, X: wire.V(5)}}
		}
		return nil
	}
	nodes, _ := spec.NewFleet(t, 3, 7, 2, bound(9), withInputs(inputs), spec.Silent).Run()
	pairs := checkPairAgreement(t, nodes)
	// The outcome may be (42, 5) or nothing (if ⊥ wins), but it must be
	// common — checked above — and if present must carry opinion 5 (the
	// only non-⊥ opinion any correct node ever held).
	if len(pairs) > 1 {
		t.Fatalf("unexpected extra pairs: %+v", pairs)
	}
	if len(pairs) == 1 && (pairs[0].Instance != 42 || !pairs[0].X.Equal(wire.V(5))) {
		t.Fatalf("outputs = %+v", pairs)
	}
	// All correct nodes became aware of the instance.
	for _, node := range nodes {
		if !node.Aware(42) {
			t.Fatalf("node %v never joined instance 42", node.ID())
		}
	}
}

// A majority of holders with a common opinion forces the pair through even
// though the rest of the correct nodes never had it as input.
func TestMajorityHeldInstanceDecidesValue(t *testing.T) {
	t.Parallel()
	inputs := func(i int, id ids.ID) []InputPair {
		// All 7 correct nodes hold the pair: validity applies even
		// though 2 Byzantine nodes (silent) exist.
		return []InputPair{{Instance: 9, X: wire.V(1)}}
	}
	nodes, _ := spec.NewFleet(t, 4, 7, 2, bound(9), withInputs(inputs), spec.Silent).Run()
	pairs := checkPairAgreement(t, nodes)
	if len(pairs) != 1 || !pairs[0].X.Equal(wire.V(1)) {
		t.Fatalf("outputs = %+v, want [(9, 1)]", pairs)
	}
}

// An instance no correct node has as input, injected by a Byzantine node
// to a subset of correct nodes in the first joinable window, must never
// produce an output pair (the ⊥ walkthrough of Theorem 5).
func TestByzantineOnlyInstanceProducesNoOutput(t *testing.T) {
	t.Parallel()
	mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
		return &instanceInjector{id: id, dir: dir, instance: 66, round: 3}
	})
	inputs := func(i int, id ids.ID) []InputPair { return nil }
	nodes, _ := spec.NewFleet(t, 5, 7, 2, bound(9), withInputs(inputs), mkByz).Run()
	pairs := checkPairAgreement(t, nodes)
	if len(pairs) != 0 {
		t.Fatalf("byzantine-only instance produced output: %+v", pairs)
	}
}

// The same injection arriving in the second phase is discarded outright.
func TestLateInstanceIsIgnored(t *testing.T) {
	t.Parallel()
	mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
		return &instanceInjector{id: id, dir: dir, instance: 67, round: 9}
	})
	inputs := func(i int, id ids.ID) []InputPair {
		return []InputPair{{Instance: 1, X: wire.V(2)}}
	}
	nodes, _ := spec.NewFleet(t, 6, 7, 2, bound(9), withInputs(inputs), mkByz).Run()
	pairs := checkPairAgreement(t, nodes)
	if len(pairs) != 1 || pairs[0].Instance != 1 {
		t.Fatalf("outputs = %+v, want only instance 1", pairs)
	}
	for _, node := range nodes {
		if node.Aware(67) {
			t.Fatalf("node %v joined a second-phase instance", node.ID())
		}
	}
}

// instanceInjector broadcasts input for a fabricated instance, starting at
// a chosen round (it still participates in init so it is censused).
type instanceInjector struct {
	id       ids.ID
	dir      *adversary.Directory
	instance uint64
	round    int
}

func (s *instanceInjector) ID() ids.ID { return s.id }
func (s *instanceInjector) Done() bool { return false }
func (s *instanceInjector) Step(env *simnet.RoundEnv) {
	switch {
	case env.Round == 1:
		env.Broadcast(wire.Init{})
	case env.Round >= s.round:
		halfA, _ := s.dir.Halves()
		for _, to := range halfA {
			env.Send(to, wire.Input{Instance: s.instance, X: wire.V(123)})
		}
	}
}

// Disagreeing opinions on a common instance still reach agreement (the
// rotor coordinator breaks the tie), and all correct nodes output the same
// pair or none.
func TestDisagreeingOpinionsReachAgreement(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			inputs := func(i int, id ids.ID) []InputPair {
				return []InputPair{{Instance: 5, X: wire.V(float64(i % 2))}}
			}
			mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
				return adversary.NewSplitVoter(id, dir, wire.V(0), wire.V(1))
			})
			nodes, _ := spec.NewFleet(t, seed, 7, 2, bound(9), withInputs(inputs), mkByz).Run()
			pairs := checkPairAgreement(t, nodes)
			if len(pairs) > 1 {
				t.Fatalf("outputs = %+v", pairs)
			}
			if len(pairs) == 1 && !pairs[0].X.Equal(wire.V(0)) && !pairs[0].X.Equal(wire.V(1)) {
				// ⊥ can also win (no output) but a decided value
				// must be one of the correct opinions here.
				t.Fatalf("decided foreign value %+v", pairs[0])
			}
		})
	}
}

// Membership mode: a run scoped to a known snapshot skips initialization
// and decides within the first five rounds on unanimous input.
func TestMembershipModeSkipsInit(t *testing.T) {
	t.Parallel()
	members := ids.NewSet(spec.IDs(8, 6)...)
	nodes, rounds := spec.NewFleet(t, 8, 6, 0, simnet.Config{MaxRounds: 40}, func(_ int, id ids.ID) *Node {
		return New(id, []InputPair{{Instance: 3, X: wire.V(4)}}, Options{Scope: NewScope(members), RotorInstance: 99})
	}, nil).Run()
	if rounds != 5 {
		t.Fatalf("membership-mode unanimous decision took %d rounds, want 5", rounds)
	}
	for _, node := range nodes {
		pairs := node.Outputs()
		if len(pairs) != 1 || !pairs[0].X.Equal(wire.V(4)) {
			t.Fatalf("node %v outputs %+v", node.ID(), pairs)
		}
	}
}

// Options.Instances separates concurrent runs: a node only reacts to its
// own instance range — half-open, and unbounded above when To is 0.
func TestInstanceFilterSeparatesRuns(t *testing.T) {
	t.Parallel()
	own := InstanceRange{From: 1 << 32, To: 2 << 32}
	if !own.contains(1<<32) || !own.contains(2<<32-1) || own.contains(1<<32-1) || own.contains(2<<32) {
		t.Fatal("range [2^32, 2^33) misplaces its bounds")
	}
	if top := (InstanceRange{From: 1 << 63}); !top.contains(1<<64-1) || top.contains(1<<63-1) {
		t.Fatal("a range with To = 0 is not unbounded above")
	}
	members := ids.NewSet(spec.IDs(9, 5)...)
	nodes, _ := spec.NewFleet(t, 9, 5, 0, simnet.Config{MaxRounds: 40}, func(_ int, id ids.ID) *Node {
		return New(id, []InputPair{{Instance: 1<<32 | 5, X: wire.V(1)}}, Options{
			Scope:         NewScope(members),
			RotorInstance: 1 << 32,
			Instances:     InstanceRange{From: 1 << 32, To: 2 << 32},
		})
	}, nil).Run()
	for _, node := range nodes {
		if node.Aware(2<<32 | 7) {
			t.Fatal("node joined an instance outside its filter")
		}
		pairs := node.Outputs()
		if len(pairs) != 1 || pairs[0].Instance != 1<<32|5 {
			t.Fatalf("outputs = %+v", pairs)
		}
	}
}

// StartRound offsets the whole grid: a run created to start at round 11
// ignores earlier rounds and decides five rounds after its start.
func TestStartRoundOffset(t *testing.T) {
	t.Parallel()
	members := ids.NewSet(spec.IDs(10, 5)...)
	nodes, _ := spec.NewFleet(t, 10, 5, 0, simnet.Config{MaxRounds: 60}, func(_ int, id ids.ID) *Node {
		return New(id, []InputPair{{Instance: 2, X: wire.V(6)}}, Options{Scope: NewScope(members), StartRound: 11})
	}, nil).Run()
	for _, node := range nodes {
		if r := node.DecisionRound(2); r != 15 {
			t.Fatalf("node %v decided in round %d, want 15 (start 11 + 5 rounds - 1)", node.ID(), r)
		}
	}
}
