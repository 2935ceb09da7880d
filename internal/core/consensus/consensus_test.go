package consensus

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

type runResult struct {
	nodes  []*Node
	rounds int
}

// byzFactory builds the Byzantine processes of a run.
type byzFactory func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process

func runConsensus(t *testing.T, seed int64, inputs []float64, nByz int,
	mkByz byzFactory, workers int) runResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := ids.Sparse(rng, len(inputs)+nByz)
	correctIDs := all[:len(inputs)]
	byzIDs := all[len(inputs):]
	dir := adversary.NewDirectory(all, byzIDs)

	net := simnet.New(simnet.Config{
		MaxRounds: 50*(len(inputs)+nByz) + 200,
		Workers:   workers,
	})
	nodes := make([]*Node, 0, len(inputs))
	for i, id := range correctIDs {
		node := New(id, wire.V(inputs[i]))
		nodes = append(nodes, node)
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	if mkByz != nil {
		for _, p := range mkByz(byzIDs, dir) {
			if err := net.AddByzantine(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	rounds, err := net.Run(simnet.AllDone(correctIDs))
	if err != nil {
		t.Fatalf("consensus did not terminate: %v", err)
	}
	return runResult{nodes: nodes, rounds: rounds}
}

// checkAgreement asserts every correct node decided the same value and
// returns it.
func checkAgreement(t *testing.T, res runResult) wire.Value {
	t.Helper()
	first, ok := res.nodes[0].Output()
	if !ok {
		t.Fatalf("node %v did not decide", res.nodes[0].ID())
	}
	for _, node := range res.nodes[1:] {
		out, ok := node.Output()
		if !ok {
			t.Fatalf("node %v did not decide", node.ID())
		}
		if !out.Equal(first) {
			t.Fatalf("disagreement: %v decided %v, %v decided %v",
				res.nodes[0].ID(), first, node.ID(), out)
		}
	}
	return first
}

func silentByz(byzIDs []ids.ID, _ *adversary.Directory) []simnet.Process {
	out := make([]simnet.Process, len(byzIDs))
	for i, id := range byzIDs {
		out[i] = adversary.NewSilent(id)
	}
	return out
}

func splitVoterByz(a, b float64) byzFactory {
	return func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = adversary.NewSplitVoter(id, dir, wire.V(a), wire.V(b))
		}
		return out
	}
}

func noiseByz(seed int64) byzFactory {
	return func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = adversary.NewRandomNoise(id, dir, seed+int64(i))
		}
		return out
	}
}

func crashByz(after int, input float64) byzFactory {
	return func(byzIDs []ids.ID, _ *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = adversary.NewCrash(New(id, wire.V(input)), after)
		}
		return out
	}
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
			res := runConsensus(t, 7, repeat(42.5, tc.g), tc.f, silentByz, 1)
			out := checkAgreement(t, res)
			if !out.Equal(wire.V(42.5)) {
				t.Fatalf("decided %v, want the unanimous input 42.5", out)
			}
			for _, node := range res.nodes {
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
	res := runConsensus(t, 3, inputs, 0, nil, 1)
	out := checkAgreement(t, res)
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
			res := runConsensus(t, seed, inputs, f, splitVoterByz(0, 1), 1)
			checkAgreement(t, res)
			// O(f): a correct coordinator phase occurs within the
			// first f+1 candidate slots plus adversarial candidate
			// churn; 5·(f+4)+2 rounds is a comfortable linear bound.
			if limit := 5*(f+4) + 2; res.rounds > limit {
				t.Fatalf("terminated in %d rounds, want ≤ %d", res.rounds, limit)
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
			res := runConsensus(t, seed, inputs, 2, noiseByz(seed*100), 1)
			checkAgreement(t, res)
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
			res := runConsensus(t, int64(after), inputs, 2, crashByz(after, 1), 1)
			checkAgreement(t, res)
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
		res := runConsensus(t, seed, inputs, 3, splitVoterByz(0, 1), 1)
		minR, maxR := res.nodes[0].DecidedRound(), res.nodes[0].DecidedRound()
		for _, node := range res.nodes {
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
		res := runConsensus(t, 5, repeat(1, g), g/4, silentByz, 1)
		for _, node := range res.nodes {
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
	mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = &lateSpammer{id: id, dir: dir}
		}
		return out
	}
	res := runConsensus(t, 11, repeat(5, 7), 2, mkByz, 1)
	out := checkAgreement(t, res)
	if !out.Equal(wire.V(5)) {
		t.Fatalf("decided %v, want 5", out)
	}
	for _, node := range res.nodes {
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
	base := runConsensus(t, 23, inputs, 2, splitVoterByz(2, 7), 1)
	vBase := checkAgreement(t, base)
	for _, workers := range []int{2, 3, 5} {
		got := runConsensus(t, 23, inputs, 2, splitVoterByz(2, 7), workers)
		if v := checkAgreement(t, got); !v.Equal(vBase) {
			t.Fatalf("workers=%d disagrees with workers=1: %v vs %v", workers, v, vBase)
		}
		if got.rounds != base.rounds {
			t.Fatalf("workers=%d took %d rounds, workers=1 took %d", workers, got.rounds, base.rounds)
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
	res := runConsensus(t, 77, inputs, f, splitVoterByz(0, 1), 1)
	checkAgreement(t, res)
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
	res := runConsensus(t, 2, repeat(9, 5), 1, silentByz, 1)
	for _, node := range res.nodes {
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
		factories := []byzFactory{silentByz, splitVoterByz(value-1, value+1), noiseByz(seed)}
		mkByz := factories[int(fRaw)%len(factories)]
		res := runConsensus(t, seed, repeat(value, g), f, mkByz, 1)
		out := checkAgreement(t, res)
		if !out.Equal(wire.V(value)) {
			return false
		}
		for _, node := range res.nodes {
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
