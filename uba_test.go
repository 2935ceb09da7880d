package uba

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"uba/internal/complexity"
	"uba/internal/core/relbcast"
	"uba/internal/ids"
	"uba/internal/oracle"
	"uba/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := Consensus(Config{Correct: 0}, nil); err == nil {
		t.Fatal("zero correct nodes accepted")
	}
	if _, err := Consensus(Config{Correct: 3, Byzantine: -1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("negative byzantine accepted")
	}
	if _, err := Consensus(Config{Correct: 3}, []float64{1}); err == nil {
		t.Fatal("input count mismatch accepted")
	}
}

func TestConfigHelpers(t *testing.T) {
	t.Parallel()
	cfg := Config{Correct: 7, Byzantine: 2}
	if cfg.N() != 9 || !cfg.Resilient() {
		t.Fatalf("N=%d Resilient=%v", cfg.N(), cfg.Resilient())
	}
	if (Config{Correct: 4, Byzantine: 2}).Resilient() {
		t.Fatal("n=6, f=2 reported resilient")
	}
	// An AdversaryNone run builds no Byzantine node, whatever Byzantine
	// says: N counts the nodes the run has, and the report's deliveries
	// are N² per broadcast round.
	none := Config{Correct: 3, Byzantine: 1, Adversary: AdversaryNone}
	if none.N() != 3 || !none.Resilient() {
		t.Fatalf("AdversaryNone with Byzantine 1: N=%d Resilient=%v, want 3 and true", none.N(), none.Resilient())
	}
	res, err := ReliableBroadcast(none, []byte("m"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Report.Broadcasts * int64(none.N()); res.Report.Unicasts != 0 || res.Report.Deliveries != want {
		t.Fatalf("%d broadcasts and %d unicasts made %d deliveries, want broadcasts × N = %d",
			res.Report.Broadcasts, res.Report.Unicasts, res.Report.Deliveries, want)
	}
}

func TestParseAdversaryRoundTrip(t *testing.T) {
	t.Parallel()
	for _, a := range []Adversary{
		AdversaryNone, AdversarySilent, AdversaryCrash,
		AdversarySplit, AdversaryGhost, AdversaryNoise,
	} {
		got, err := ParseAdversary(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAdversary(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAdversary("bogus"); err == nil {
		t.Fatal("bogus adversary parsed")
	}
}

func TestConsensusFacade(t *testing.T) {
	t.Parallel()
	for _, adv := range []Adversary{AdversarySilent, AdversarySplit, AdversaryNoise, AdversaryCrash} {
		adv := adv
		t.Run(adv.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Consensus(Config{
				Correct: 7, Byzantine: 2, Adversary: adv, Seed: 42,
			}, []float64{0, 1, 0, 1, 0, 1, 0})
			if err != nil {
				t.Fatal(err)
			}
			if res.Decision != 0 && res.Decision != 1 {
				t.Fatalf("decision %v not a correct input", res.Decision)
			}
			if res.Rounds <= 0 || res.Report.Deliveries == 0 {
				t.Fatalf("suspicious result: %+v", res)
			}
		})
	}
}

func TestConsensusUnanimityFastPath(t *testing.T) {
	t.Parallel()
	res, err := Consensus(Config{Correct: 10, Byzantine: 3, Seed: 1},
		[]float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != 5 || res.Rounds != 7 {
		t.Fatalf("unanimous: decision %v in %d rounds, want 5 in 7", res.Decision, res.Rounds)
	}
}

func TestReliableBroadcastFacade(t *testing.T) {
	t.Parallel()
	res, err := ReliableBroadcast(Config{Correct: 7, Byzantine: 2, Seed: 3}, []byte("m"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted {
		t.Fatal("not all nodes accepted")
	}
	for i, round := range res.AcceptRounds {
		if round != 3 {
			t.Fatalf("node %d accepted in round %d, want 3", i, round)
		}
	}
}

func TestRotorFacade(t *testing.T) {
	t.Parallel()
	res, err := Rotor(Config{Correct: 8, Byzantine: 2, Adversary: AdversaryGhost, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodRound == 0 {
		t.Fatal("no good round observed")
	}
	if res.Rounds > 4*10 {
		t.Fatalf("rotor ran %d rounds for n=10", res.Rounds)
	}
	if len(res.Coordinators) == 0 {
		t.Fatal("no coordinator history")
	}
}

func TestApproximateAgreementFacade(t *testing.T) {
	t.Parallel()
	inputs := []float64{0, 10, 20, 30, 40, 50, 60}
	res, err := ApproximateAgreement(Config{
		Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 5,
	}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputLo < res.InputLo || res.OutputHi > res.InputHi {
		t.Fatalf("outputs escaped input range: %+v", res)
	}
	if res.RangeRatio() > 0.5+1e-9 {
		t.Fatalf("range ratio %v > 0.5", res.RangeRatio())
	}
	// A NaN input is refused before a run: a node would drop its own.
	inputs[3] = math.NaN()
	if _, err := ApproximateAgreement(Config{Correct: 7}, inputs); err == nil || !strings.Contains(err.Error(), "input 3 is NaN") {
		t.Fatalf("a NaN input: err = %v", err)
	}
}

func TestIteratedApproximateAgreementFacade(t *testing.T) {
	t.Parallel()
	inputs := []float64{0, 32, 64, 96, 128, 100, 4}
	res, err := IteratedApproximateAgreement(Config{
		Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 6,
	}, inputs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RangePerRound) != 8 {
		t.Fatalf("tracked %d rounds, want 8", len(res.RangePerRound))
	}
	prev := 128.0
	for i, r := range res.RangePerRound {
		if r > prev/2+1e-9 {
			t.Fatalf("round %d: range %v did not halve from %v", i, r, prev)
		}
		prev = r
	}
	inputs[0] = math.NaN()
	if _, err := IteratedApproximateAgreement(Config{Correct: 7}, inputs, 8); err == nil || !strings.Contains(err.Error(), "input 0 is NaN") {
		t.Fatalf("a NaN input: err = %v", err)
	}
}

func TestParallelConsensusFacade(t *testing.T) {
	t.Parallel()
	inputs := make([][]Pair, 7)
	for i := range inputs {
		inputs[i] = []Pair{{Instance: 1, Value: 10}, {Instance: 2, Value: 20}}
	}
	// Node 0 additionally proposes a pair the others do not know.
	inputs[0] = append(inputs[0], Pair{Instance: 3, Value: 30})
	res, err := ParallelConsensus(Config{Correct: 7, Byzantine: 2, Seed: 8}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decided) < 2 {
		t.Fatalf("decided %v, want at least the two common pairs", res.Decided)
	}
	if res.Decided[0].Instance != 1 || res.Decided[0].Value != 10 {
		t.Fatalf("first pair %+v", res.Decided[0])
	}
	if res.Decided[1].Instance != 2 || res.Decided[1].Value != 20 {
		t.Fatalf("second pair %+v", res.Decided[1])
	}
}

func TestRenamingFacade(t *testing.T) {
	t.Parallel()
	res, err := Renaming(Config{Correct: 9, Byzantine: 2, Adversary: AdversaryGhost, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 9 {
		t.Fatalf("%d names, want 9", len(res.Names))
	}
	seen := make(map[int]bool)
	for _, name := range res.Names {
		if name < 1 || name > res.SetSize {
			t.Fatalf("name %d outside 1..%d", name, res.SetSize)
		}
		if seen[name] {
			t.Fatalf("duplicate name %d", name)
		}
		seen[name] = true
	}
}

// A warm renaming run at n = 511 allocates a few MB: the identifier set
// is the rotor core's candidate set, folded from the engine's counted
// echo list, with no n_v-bit row per identifier per node. The pooled
// round scratch reaches its size in two runs, and a GC may empty the
// pool between runs, so the least of three warm runs is what counts.
// Not parallel: TotalAlloc counts the whole process.
func TestRenamingWarmAllocation(t *testing.T) {
	cfg := Config{Correct: 341, Byzantine: 170, Seed: 1}
	least := math.Inf(1)
	for run := range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Renaming(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if run >= 2 {
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		}
	}
	if least > 10 {
		t.Fatalf("a warm renaming run at n = 511 allocated %.1f MB, want at most 10", least)
	}
}

func TestTerminatingBroadcastFacade(t *testing.T) {
	t.Parallel()
	res, err := TerminatingBroadcast(Config{Correct: 7, Byzantine: 2, Seed: 13}, []byte("payload"), true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || string(res.Body) != "payload" {
		t.Fatalf("result %+v", res)
	}
	// Faulty (silent) source: common "nothing delivered".
	res, err = TerminatingBroadcast(Config{Correct: 7, Byzantine: 2, Seed: 14}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("delivered from a silent source")
	}
}

// A faulty source under AdversarySplit equivocates: it shows "split-A" to
// one half of the correct nodes and "split-B" to the other. The run must
// still end in one common outcome (TerminatingBroadcast itself fails with
// ErrDisagreement otherwise) that is a body the source sent or nothing —
// and not in the first phase, which is what a silent source costs: the
// opinions start split.
func TestTerminatingBroadcastEquivocatingSource(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 20; seed++ {
		cfg := Config{Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: seed}
		res, err := TerminatingBroadcast(cfg, nil, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if body := string(res.Body); res.Delivered != (body != "") || (res.Delivered && body != "split-A" && body != "split-B") {
			t.Fatalf("seed %d: delivered=%v body %q", seed, res.Delivered, body)
		}
		if res.Rounds <= 7 {
			t.Fatalf("seed %d: %d rounds: the source's two bodies never reached consensus as split opinions", seed, res.Rounds)
		}
	}
}

func TestOrderingClusterFacade(t *testing.T) {
	t.Parallel()
	oc, err := NewOrderingCluster(Config{Correct: 5, Byzantine: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	members := oc.Members()
	if len(members) != 5 {
		t.Fatalf("%d members, want 5", len(members))
	}
	for i, m := range members {
		if err := oc.SubmitEvent(m, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := oc.RunRounds(70); err != nil {
		t.Fatal(err)
	}
	chain, err := oc.Chain(members[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 5 {
		t.Fatalf("chain %v, want the 5 submitted events", chain)
	}
	for _, other := range members[1:] {
		oChain, err := oc.Chain(other)
		if err != nil {
			t.Fatal(err)
		}
		for i := range oChain {
			if i < len(chain) && oChain[i] != chain[i] {
				t.Fatalf("chains diverge at %d", i)
			}
		}
	}
	if _, err := oc.Chain(12345); err == nil {
		t.Fatal("unknown member accepted")
	}
	if err := oc.SubmitEvent(12345, 1); err == nil {
		t.Fatal("unknown member accepted")
	}
	// Members drop a NaN event, so it is refused rather than lost.
	if err := oc.SubmitEvent(members[0], math.NaN()); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("a NaN event: err = %v", err)
	}
}

// A session ends at the last round the instance tags can name: RunRounds
// refuses to go past it, and what was final by then stays readable.
func TestOrderingClusterStopsAtTheRoundBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a session to protocol round 65535")
	}
	t.Parallel()
	oc, err := NewOrderingCluster(Config{Correct: 4, Byzantine: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	member := oc.Members()[0]
	const last = 1<<16 - 1
	var early []Event
	for done := 0; done < last; done += 257 {
		if err := oc.SubmitEvent(member, float64(done)); err != nil {
			t.Fatal(err)
		}
		if err := oc.RunRounds(min(257, last-done)); err != nil {
			t.Fatalf("after %d rounds: %v", done, err)
		}
		if done == 250*257 {
			early, _ = oc.Chain(member)
			// Submissions from here on land in the session's last rounds.
			for i := 0; i < 2000; i++ {
				if err := oc.SubmitEvent(member, float64(-i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if r, _ := oc.Round(member); r != last {
		t.Fatalf("member at round %d, want %d", r, last)
	}
	before, _ := oc.Chain(member)
	if len(before) < 255+1000 || before[len(before)-1].Round < last-20 {
		t.Fatalf("chain of %d events ends at %v", len(before), before[len(before)-1])
	}
	if len(early) < 200 || !slices.Equal(before[:len(early)], early) {
		t.Fatalf("the chain at the bound does not extend the %d events read earlier", len(early))
	}
	for _, rounds := range []int{1, 40} {
		err := oc.RunRounds(rounds)
		if err == nil || !strings.Contains(err.Error(), "65535") || strings.Contains(err.Error(), "\n") {
			t.Fatalf("RunRounds(%d) at the bound: %v", rounds, err)
		}
	}
	if r, _ := oc.Round(member); r != last {
		t.Fatalf("member stepped to round %d", r)
	}
	if after, _ := oc.Chain(member); !slices.Equal(after, before) {
		t.Fatalf("chain changed at the bound: %d events, then %d", len(before), len(after))
	}
}

func TestOrderingClusterJoinLeave(t *testing.T) {
	t.Parallel()
	oc, err := NewOrderingCluster(Config{Correct: 5, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	joiner, err := oc.Join()
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(5); err != nil {
		t.Fatal(err)
	}
	r, err := oc.Round(joiner)
	if err != nil || r == 0 {
		t.Fatalf("joiner round %d, err %v", r, err)
	}
	if err := oc.SubmitEvent(joiner, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(60); err != nil {
		t.Fatal(err)
	}
	founder := oc.Members()[0]
	chain, err := oc.Chain(founder)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range chain {
		if e.Submitter == joiner && e.Value == 3.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("joiner's event not ordered: %v", chain)
	}
	if err := oc.Leave(joiner); err != nil {
		t.Fatal(err)
	}
	if err := oc.RunRounds(40); err != nil {
		t.Fatal(err)
	}
}

func TestImpossibilityDemoFacade(t *testing.T) {
	t.Parallel()
	tests := []struct {
		model TimingModel
		agree bool
	}{
		{TimingSynchronous, true},
		{TimingSemiSync, false},
		{TimingAsync, false},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.model.String(), func(t *testing.T) {
			t.Parallel()
			res, err := ImpossibilityDemo(tt.model, 4, 21)
			if err != nil {
				t.Fatal(err)
			}
			if res.Agreement != tt.agree {
				t.Fatalf("%v: agreement = %v, want %v", tt.model, res.Agreement, tt.agree)
			}
			if len(res.Decisions) != 8 {
				t.Fatalf("%d decisions, want 8", len(res.Decisions))
			}
		})
	}
	if _, err := ImpossibilityDemo(TimingAsync, 0, 1); err == nil {
		t.Fatal("zero nodes per side accepted")
	}
	if _, err := ImpossibilityDemo(TimingModel(99), 3, 1); err == nil {
		t.Fatal("bogus timing model accepted")
	}
}

// Determinism across the facade: identical configs yield identical
// decisions, rounds, and traffic.
func TestFacadeDeterminism(t *testing.T) {
	t.Parallel()
	run := func() string {
		res, err := Consensus(Config{
			Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 33,
		}, []float64{0, 1, 1, 0, 1, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v/%d/%d/%d", res.Decision, res.Rounds,
			res.Report.Deliveries, res.Report.Bytes)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic facade run: %s vs %s", a, b)
	}
}

// Every worker cap agrees through the facade too; the zero Config
// value is the inline default.
func TestFacadeRunnerEquivalence(t *testing.T) {
	t.Parallel()
	inputs := []float64{3, 4, 3, 4, 3, 4, 4}
	cfg := Config{Correct: 7, Byzantine: 2, Adversary: AdversarySplit, Seed: 40}
	base, err := Consensus(cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 5} {
		cfg.Workers = workers
		got, err := Consensus(cfg, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Decision != base.Decision || got.Rounds != base.Rounds {
			t.Fatalf("workers=%d differs from the default: %+v vs %+v", workers, got, base)
		}
	}
}

func TestImpossibilityVictimSweep(t *testing.T) {
	t.Parallel()
	for _, victim := range []VictimProtocol{VictimWaitMajority, VictimWaitMin, VictimDeadlineMajority} {
		victim := victim
		t.Run(victim.String(), func(t *testing.T) {
			t.Parallel()
			adv, err := ImpossibilityDemoAgainst(TimingAsync, victim, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			if adv.Agreement {
				t.Fatalf("%v agreed under the async partition", victim)
			}
			ctl, err := ImpossibilityDemoAgainst(TimingSynchronous, victim, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !ctl.Agreement {
				t.Fatalf("%v disagreed under the synchronous control", victim)
			}
		})
	}
	if _, err := ImpossibilityDemoAgainst(TimingAsync, VictimProtocol(99), 3, 1); err == nil {
		t.Fatal("bogus victim accepted")
	}
}

func TestFacadeEventLogTranscript(t *testing.T) {
	t.Parallel()
	log := trace.NewEventLog(10_000)
	_, err := Consensus(Config{
		Correct: 4, Byzantine: 1, Seed: 2, EventLog: log,
	}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	events := log.Events()
	if len(events) == 0 {
		t.Fatal("no transcript recorded")
	}
	kinds := make(map[string]bool)
	for _, e := range events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"init", "idecho", "input", "prefer", "strongprefer"} {
		if !kinds[want] {
			t.Fatalf("transcript missing kind %q; kinds: %v", want, kinds)
		}
	}
}

// TestFacadeSuitesReadNoMessages: the suite every public run attaches
// holds only its family's complexity oracle, which reads the round's
// accounting, so it declines the message events and the engine builds
// none. A broadcast suite, whose unforgeability oracle learns genuine
// broadcasts from those events, still asks for them.
func TestFacadeSuitesReadNoMessages(t *testing.T) {
	t.Parallel()
	for _, e := range complexity.Registry() {
		cl, err := newCluster(Config{Correct: 4, Byzantine: 1, Seed: 1}, e.Family)
		if err != nil {
			t.Fatal(err)
		}
		if cl.suite.ReadsMessages() {
			t.Errorf("%s: the facade's suite reads message events", e.Family)
		}
		cl.close()
	}
	nodes := []*relbcast.Node{relbcast.NewSource(1, []byte("m")), relbcast.NewRelay(2)}
	if !oracle.NewSuite(oracle.ForBroadcast(nodes, ids.NewSet(1, 2))...).ReadsMessages() {
		t.Error("a broadcast suite reads no message events")
	}
}
