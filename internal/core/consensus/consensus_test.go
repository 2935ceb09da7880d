package consensus

import (
	"fmt"
	"testing"
	"testing/quick"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// withInputs builds correct node i of a fleet with input xs[i].
func withInputs(xs []float64) func(int, ids.ID) *Node {
	return func(i int, id ids.ID) *Node { return New(id, wire.V(xs[i])) }
}

// bound is the network of a run of n nodes: 50 rounds a node and 200
// more, stepped by workers.
func bound(n, workers int) simnet.Config {
	return simnet.Config{MaxRounds: 50*n + 200, Workers: workers}
}

// checkAgreement asserts every correct node decided the same value and
// returns it.
func checkAgreement(t *testing.T, nodes []*Node) wire.Value {
	t.Helper()
	first, ok := nodes[0].Output()
	if !ok {
		t.Fatalf("node %v did not decide", nodes[0].ID())
	}
	for _, node := range nodes[1:] {
		out, ok := node.Output()
		if !ok {
			t.Fatalf("node %v did not decide", node.ID())
		}
		if !out.Equal(first) {
			t.Fatalf("disagreement: %v decided %v, %v decided %v",
				nodes[0].ID(), first, node.ID(), out)
		}
	}
	return first
}

func splitVoterByz(a, b float64) spec.Byzantine {
	return spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
		return adversary.NewSplitVoter(id, dir, wire.V(a), wire.V(b))
	})
}

func noiseByz(seed int64) spec.Byzantine {
	return func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = adversary.NewRandomNoise(id, dir, seed+int64(i))
		}
		return out
	}
}

func crashByz(after int, input float64) spec.Byzantine {
	return spec.Each(func(id ids.ID, _ *adversary.Directory) simnet.Process {
		return adversary.NewCrash(New(id, wire.V(input)), after)
	})
}

func repeat(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// Validity (Lemma 5): unanimous inputs decide that value in a single
// phase — round 7 — regardless of n and of silent Byzantine nodes.
func TestUnanimousInputsDecideInOnePhase(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ g, f int }{{4, 0}, {4, 1}, {7, 2}, {13, 4}, {25, 8}} {
		tc := tc
		t.Run(fmt.Sprintf("g=%d_f=%d", tc.g, tc.f), func(t *testing.T) {
			t.Parallel()
			nodes, _ := spec.NewFleet(t, 7, tc.g, tc.f, bound(tc.g+tc.f, 1), withInputs(repeat(42.5, tc.g)), spec.Silent).Run()
			out := checkAgreement(t, nodes)
			if !out.Equal(wire.V(42.5)) {
				t.Fatalf("decided %v, want the unanimous input 42.5", out)
			}
			for _, node := range nodes {
				if node.DecidedRound() != 7 {
					t.Fatalf("node %v decided in round %d, want 7",
						node.ID(), node.DecidedRound())
				}
			}
		})
	}
}

// Agreement with split inputs and no Byzantine nodes: everyone decides a
// common value that was some node's input.
func TestSplitInputsNoFaults(t *testing.T) {
	t.Parallel()
	inputs := []float64{0, 0, 1, 1, 0, 1, 1}
	nodes, _ := spec.NewFleet(t, 3, len(inputs), 0, bound(len(inputs), 1), withInputs(inputs), nil).Run()
	out := checkAgreement(t, nodes)
	if !out.Equal(wire.V(0)) && !out.Equal(wire.V(1)) {
		t.Fatalf("decided %v, want 0 or 1", out)
	}
}

// Agreement under the split-voter coalition across seeds: never a
// disagreement, always termination within the O(f) bound.
func TestAgreementUnderSplitVoter(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			g, f := 7, 2
			inputs := make([]float64, g)
			for i := range inputs {
				inputs[i] = float64(i % 2)
			}
			nodes, rounds := spec.NewFleet(t, seed, g, f, bound(g+f, 1), withInputs(inputs), splitVoterByz(0, 1)).Run()
			checkAgreement(t, nodes)
			// O(f): a correct coordinator phase occurs within the
			// first f+1 candidate slots plus adversarial candidate
			// churn; 5·(f+4)+2 rounds is a comfortable linear bound.
			if limit := 5*(f+4) + 2; rounds > limit {
				t.Fatalf("terminated in %d rounds, want ≤ %d", rounds, limit)
			}
		})
	}
}

// Agreement under random noise adversaries.
func TestAgreementUnderRandomNoise(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			inputs := []float64{3, 1, 4, 1, 5, 9, 2}
			nodes, _ := spec.NewFleet(t, seed, 7, 2, bound(9, 1), withInputs(inputs), noiseByz(seed*100)).Run()
			checkAgreement(t, nodes)
		})
	}
}

// Byzantine slots running the correct protocol and crashing mid-run must
// not break agreement among the correct nodes.
func TestAgreementUnderMidRunCrashes(t *testing.T) {
	t.Parallel()
	for _, after := range []int{1, 3, 5, 8, 12} {
		after := after
		t.Run(fmt.Sprintf("crashAfter=%d", after), func(t *testing.T) {
			t.Parallel()
			inputs := []float64{0, 1, 0, 1, 0, 1, 0}
			nodes, _ := spec.NewFleet(t, int64(after), 7, 2, bound(9, 1), withInputs(inputs), crashByz(after, 1)).Run()
			checkAgreement(t, nodes)
		})
	}
}

// All correct nodes terminate within one phase of each other (Lemma 6 and
// Lemma 5 chained: once one node terminates, the rest share its opinion
// and terminate in the next phase).
func TestTerminationSpreadAtMostOnePhase(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		inputs := []float64{0, 1, 1, 0, 1, 0, 0, 1, 1, 0}
		nodes, _ := spec.NewFleet(t, seed, 10, 3, bound(13, 1), withInputs(inputs), splitVoterByz(0, 1)).Run()
		minR, maxR := nodes[0].DecidedRound(), nodes[0].DecidedRound()
		for _, node := range nodes {
			r := node.DecidedRound()
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
		if maxR-minR > 5 {
			t.Fatalf("seed %d: decision rounds spread %d..%d (> one phase)", seed, minR, maxR)
		}
	}
}

// Unanimity termination is independent of n (early termination): the
// decision round stays 7 as n grows.
func TestEarlyTerminationIndependentOfN(t *testing.T) {
	t.Parallel()
	for _, g := range []int{4, 10, 22, 40} {
		nodes, _ := spec.NewFleet(t, 5, g, g/4, bound(g+g/4, 1), withInputs(repeat(1, g)), spec.Silent).Run()
		for _, node := range nodes {
			if node.DecidedRound() != 7 {
				t.Fatalf("g=%d: node decided in round %d, want 7", g, node.DecidedRound())
			}
		}
	}
}

// The census freeze means post-initialization strangers are ignored: a
// Byzantine node silent during init cannot influence tallies later. Here
// all Byzantine nodes skip init and then spam split votes; consensus must
// behave exactly as in the fault-free run.
func TestLateStrangersAreIgnored(t *testing.T) {
	t.Parallel()
	spam := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process { return &lateSpammer{id: id, dir: dir} })
	nodes, _ := spec.NewFleet(t, 11, 7, 2, bound(9, 1), withInputs(repeat(5, 7)), spam).Run()
	out := checkAgreement(t, nodes)
	if !out.Equal(wire.V(5)) {
		t.Fatalf("decided %v, want 5", out)
	}
	for _, node := range nodes {
		if node.DecidedRound() != 7 {
			t.Fatalf("late spam delayed decision to round %d", node.DecidedRound())
		}
		if node.NV() != 7 {
			t.Fatalf("frozen n_v = %d, want 7 (strangers excluded)", node.NV())
		}
	}
}

// lateSpammer stays silent through initialization, then floods split
// votes. Being outside every census, it must have zero effect.
type lateSpammer struct {
	id  ids.ID
	dir *adversary.Directory
}

func (s *lateSpammer) ID() ids.ID { return s.id }
func (s *lateSpammer) Done() bool { return false }
func (s *lateSpammer) Step(env *simnet.RoundEnv) {
	if env.Round <= 2 {
		return
	}
	env.Broadcast(wire.Input{X: wire.V(999)})
	env.Broadcast(wire.Prefer{X: wire.V(999)})
	env.Broadcast(wire.StrongPrefer{X: wire.V(999)})
	env.Broadcast(wire.Opinion{X: wire.V(999)})
}

// Decisions are identical whatever the number of step workers.
func TestConsensusDeterministicAcrossRunners(t *testing.T) {
	t.Parallel()
	inputs := []float64{2, 7, 2, 7, 2, 7, 7}
	base, baseRounds := spec.NewFleet(t, 23, 7, 2, bound(9, 1), withInputs(inputs), splitVoterByz(2, 7)).Run()
	vBase := checkAgreement(t, base)
	for _, workers := range []int{2, 3, 5} {
		got, rounds := spec.NewFleet(t, 23, 7, 2, bound(9, workers), withInputs(inputs), splitVoterByz(2, 7)).Run()
		if v := checkAgreement(t, got); !v.Equal(vBase) {
			t.Fatalf("workers=%d disagrees with workers=1: %v vs %v", workers, v, vBase)
		}
		if rounds != baseRounds {
			t.Fatalf("workers=%d took %d rounds, workers=1 took %d", workers, rounds, baseRounds)
		}
	}
}

// Larger-scale smoke: n = 40, f = 13 (the maximum for n > 3f at that
// size), adversarial split voting. Agreement must hold.
func TestAgreementNearMaximumFaultLoad(t *testing.T) {
	t.Parallel()
	g, f := 27, 13
	inputs := make([]float64, g)
	for i := range inputs {
		inputs[i] = float64(i % 2)
	}
	nodes, _ := spec.NewFleet(t, 77, g, f, bound(g+f, 1), withInputs(inputs), splitVoterByz(0, 1)).Run()
	checkAgreement(t, nodes)
}

func TestTallyBestTieBreaksDeterministically(t *testing.T) {
	t.Parallel()
	var tl wire.Tally
	tl.Add(wire.V(5), 3)
	tl.Add(wire.V(2), 3)
	v, count := tl.Best()
	if count != 3 || !v.Equal(wire.V(2)) {
		t.Fatalf("best = (%v, %d), want (2, 3)", v, count)
	}
	var empty wire.Tally
	if _, count := empty.Best(); count != 0 {
		t.Fatalf("empty tally best count = %d", count)
	}
}

// History records one entry per phase with the coordinator and opinion.
func TestHistoryRecordsPhases(t *testing.T) {
	t.Parallel()
	nodes, _ := spec.NewFleet(t, 2, 5, 1, bound(6, 1), withInputs(repeat(9, 5)), spec.Silent).Run()
	for _, node := range nodes {
		h := node.History()
		if len(h) != node.Phases() || len(h) == 0 {
			t.Fatalf("history length %d, phases %d", len(h), node.Phases())
		}
		if !h[len(h)-1].X.Equal(wire.V(9)) {
			t.Fatalf("final phase opinion = %v", h[len(h)-1].X)
		}
	}
}

// Property: unanimous random real inputs always decide that exact value
// in one phase, for random resilient shapes and adversaries.
func TestUnanimityValidityProperty(t *testing.T) {
	t.Parallel()
	prop := func(seed int64, fRaw uint8, valueRaw int32) bool {
		f := int(fRaw%3) + 1
		g := 2*f + 1
		value := float64(valueRaw) / 16
		factories := []spec.Byzantine{spec.Silent, splitVoterByz(value-1, value+1), noiseByz(seed)}
		nodes, _ := spec.NewFleet(t, seed, g, f, bound(g+f, 1), withInputs(repeat(value, g)), factories[int(fRaw)%len(factories)]).Run()
		out := checkAgreement(t, nodes)
		if !out.Equal(wire.V(value)) {
			return false
		}
		for _, node := range nodes {
			if node.DecidedRound() != 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Under a silent adversary every correct node hears the same senders,
// so from round 2 on the fleet holds one census, frozen once: one shared
// set, the same pointer at every node and in every frozen census, not g
// equal copies — for every worker count.
func TestSilentFleetSharesOneCensus(t *testing.T) {
	t.Parallel()
	const g, f = 13, 6
	for _, workers := range []int{1, 3} {
		fl := spec.NewFleet(t, 5, g, f, bound(g+f, workers), withInputs(repeat(1, g)), spec.Silent)
		for round := 1; round <= 6; round++ {
			nodes := fl.RunFor(1)
			if round < 2 {
				continue
			}
			shared := nodes[0].cen.Members()
			if !shared.Sealed() || shared.Len() != g {
				t.Fatalf("workers=%d round %d: the census is not sealed or has %d members, want %d", workers, round, shared.Len(), g)
			}
			for _, n := range nodes {
				if n.cen.Members() != shared || n.frozen.Members() != shared {
					t.Fatalf("workers=%d round %d: node %v holds a census of its own", workers, round, n.ID())
				}
			}
		}
	}
}
