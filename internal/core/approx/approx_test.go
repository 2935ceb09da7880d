package approx

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

func wireInput(v float64) wire.Payload { return wire.Input{X: wire.V(v)} }

func TestReduceBasics(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name   string
		values []float64
		want   float64
		ok     bool
	}{
		{"empty", nil, 0, false},
		{"single", []float64{5}, 5, true},
		{"two", []float64{2, 4}, 3, true},
		{"three discards extremes", []float64{0, 10, 100}, 10, true},
		{"six discards two each side", []float64{0, 1, 2, 3, 4, 100}, 2.5, true},
		{"byzantine extremes clipped", []float64{-1e9, 1, 2, 3, 1e9}, 2, true},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			got, ok := Reduce(tt.values)
			if ok != tt.ok || (ok && got != tt.want) {
				t.Fatalf("Reduce(%v) = (%v, %v), want (%v, %v)",
					tt.values, got, ok, tt.want, tt.ok)
			}
		})
	}
}

// Property (Lemma aa-Within as arithmetic): for any multiset containing at
// least 2k+1 "correct" values and at most k adversarial values with
// 3k < total, the reduction lands within [min correct, max correct].
func TestReduceStaysWithinCorrectRange(t *testing.T) {
	t.Parallel()
	prop := func(correctRaw []int16, byzRaw []int16, kRaw uint8) bool {
		if len(correctRaw) == 0 {
			return true
		}
		// Build a configuration with g correct and f = min(len(byz), (g-1)/2)
		// Byzantine values so that g > 2f (i.e. n > 3f with n = g+f).
		g := len(correctRaw)
		f := len(byzRaw)
		if max := (g - 1) / 2; f > max {
			f = max
		}
		correct := make([]float64, g)
		for i, r := range correctRaw {
			correct[i] = float64(r)
		}
		all := append([]float64(nil), correct...)
		for _, r := range byzRaw[:f] {
			all = append(all, float64(r)*1e6) // wild adversarial values
		}
		out, ok := Reduce(all)
		if !ok {
			return false
		}
		lo, hi := correct[0], correct[0]
		for _, x := range correct {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return out >= lo && out <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// single builds correct node i of a fleet with input inputs[i].
func single(inputs []float64) func(int, ids.ID) *Node {
	return func(i int, id ids.ID) *Node { return New(id, inputs[i]) }
}

func rangeOf(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

func outputs(t *testing.T, nodes []*Node) []float64 {
	t.Helper()
	out := make([]float64, len(nodes))
	for i, n := range nodes {
		x, ok := n.Output()
		if !ok {
			t.Fatalf("node %v did not finish", n.ID())
		}
		out[i] = x
	}
	return out
}

// Theorem 4: outputs lie within the correct input range and the output
// range is at most half the input range, under the splitter adversary.
func TestSingleShotValidityAndHalving(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 31))
			g, f := 7, 2
			inputs := make([]float64, g)
			for i := range inputs {
				inputs[i] = rng.Float64()*100 - 50
			}
			mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
				return adversary.NewInputSplitter(id, dir, -1e12, 1e12)
			})
			nodes, _ := spec.NewFleet(t, seed, len(inputs), f, simnet.Config{MaxRounds: 10}, single(inputs), mkByz).Run()
			outs := outputs(t, nodes)
			inLo, inHi := rangeOf(inputs)
			outLo, outHi := rangeOf(outs)
			if outLo < inLo || outHi > inHi {
				t.Fatalf("outputs [%v, %v] escape input range [%v, %v]",
					outLo, outHi, inLo, inHi)
			}
			if inHi > inLo && (outHi-outLo) > (inHi-inLo)/2+1e-9 {
				t.Fatalf("output range %v > half input range %v",
					outHi-outLo, (inHi-inLo)/2)
			}
		})
	}
}

func TestSingleShotUnanimousInputs(t *testing.T) {
	t.Parallel()
	inputs := []float64{7, 7, 7, 7}
	nodes, _ := spec.NewFleet(t, 5, len(inputs), 1, simnet.Config{MaxRounds: 10}, single(inputs), spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
		return adversary.NewInputSplitter(id, dir, -100, 100)
	})).Run()
	for _, x := range outputs(t, nodes) {
		if x != 7 {
			t.Fatalf("output %v, want exactly 7 (unanimous inputs)", x)
		}
	}
}

// A Byzantine node sending several different values in one round gets
// only one of them counted.
func TestEquivocatingInputCountsOnce(t *testing.T) {
	t.Parallel()
	multi := spec.Each(func(id ids.ID, _ *adversary.Directory) simnet.Process {
		return &multiValueSender{id: id, values: []float64{-1e6, -2e6, -3e6, 1e6}}
	})
	nodes, _ := spec.NewFleet(t, 4, 4, 1, simnet.Config{MaxRounds: 10}, single([]float64{10, 20, 30, 40}), multi).Run()
	for _, node := range nodes {
		if node.NV() != 5 {
			t.Fatalf("node %v counted %d values, want 5 (one per sender)", node.ID(), node.NV())
		}
		x, _ := node.Output()
		if x < 10 || x > 40 {
			t.Fatalf("output %v escaped correct range [10, 40]", x)
		}
	}
}

type multiValueSender struct {
	id     ids.ID
	values []float64
}

func (m *multiValueSender) ID() ids.ID { return m.id }
func (m *multiValueSender) Done() bool { return false }
func (m *multiValueSender) Step(env *simnet.RoundEnv) {
	for _, v := range m.values {
		env.Broadcast(wireInput(v))
	}
}

// NaN injections must be ignored entirely.
func TestNaNInjectionIgnored(t *testing.T) {
	t.Parallel()
	nan := spec.Each(func(id ids.ID, _ *adversary.Directory) simnet.Process {
		return &multiValueSender{id: id, values: []float64{math.NaN()}}
	})
	nodes, _ := spec.NewFleet(t, 6, 4, 1, simnet.Config{MaxRounds: 10}, single([]float64{1, 2, 3, 4}), nan).Run()
	for _, node := range nodes {
		x, _ := node.Output()
		if math.IsNaN(x) || x < 1 || x > 4 {
			t.Fatalf("output %v poisoned by NaN injection", x)
		}
	}
}

// Iterated agreement: range halves (at least) every round, so after k
// rounds the correct estimates span ≤ range/2^k.
func TestIteratedConvergenceRate(t *testing.T) {
	t.Parallel()
	const rounds = 8
	inputs := []float64{0, 16, 32, 48, 64, 80, 128}
	split := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
		return adversary.NewInputSplitter(id, dir, -1e9, 1e9)
	})
	nodes, _ := spec.NewFleet(t, 12, 7, 2, simnet.Config{MaxRounds: 50}, func(i int, id ids.ID) *Iterated {
		return NewIterated(id, inputs[i], rounds)
	}, split).Run()
	inLo, inHi := rangeOf(inputs)
	prevRange := inHi - inLo
	for step := 0; step < rounds; step++ {
		ests := make([]float64, len(nodes))
		for i, n := range nodes {
			h := n.History()
			if len(h) != rounds {
				t.Fatalf("node %v recorded %d steps, want %d", n.ID(), len(h), rounds)
			}
			ests[i] = h[step]
		}
		lo, hi := rangeOf(ests)
		if lo < inLo || hi > inHi {
			t.Fatalf("step %d: estimates [%v, %v] escaped input range", step, lo, hi)
		}
		if hi-lo > prevRange/2+1e-9 {
			t.Fatalf("step %d: range %v did not halve from %v", step, hi-lo, prevRange)
		}
		prevRange = hi - lo
	}
	// After 8 halvings of a 128-wide range the spread must be ≤ 0.5.
	finals := make([]float64, len(nodes))
	for i, n := range nodes {
		finals[i] = n.Estimate()
	}
	lo, hi := rangeOf(finals)
	if hi-lo > 128.0/256.0 {
		t.Fatalf("final spread %v, want ≤ 0.5", hi-lo)
	}
}

// Dynamic membership (§8): nodes joining and leaving between rounds do not
// break validity as long as n > 3f each round; joiners adopt values inside
// the current correct range, so the range keeps shrinking.
func TestIteratedWithChurn(t *testing.T) {
	t.Parallel()
	const rounds = 6
	rng := rand.New(rand.NewSource(33))
	all := ids.Sparse(rng, 12)
	net := simnet.New(simnet.Config{MaxRounds: 60})
	initial := all[:8]
	inputs := []float64{0, 10, 20, 30, 40, 50, 60, 70}
	nodes := make(map[ids.ID]*Iterated, 12)
	for i, id := range initial {
		node := NewIterated(id, inputs[i], rounds)
		nodes[id] = node
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	// Run two rounds, remove one node, add two new ones whose inputs sit
	// inside the original range, keep going.
	for i := 0; i < 2; i++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	net.Remove(initial[0])
	delete(nodes, initial[0])
	for i, id := range all[8:10] {
		node := NewIterated(id, 35+float64(i), rounds)
		nodes[id] = node
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	live := make([]ids.ID, 0, len(nodes))
	for id := range nodes {
		live = append(live, id)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	if _, err := net.Run(simnet.AllDone(live)); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		est := node.Estimate()
		if est < 0 || est > 70 {
			t.Fatalf("node %v estimate %v escaped original range", node.ID(), est)
		}
	}
}
