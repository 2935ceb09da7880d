package chaos

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"uba/internal/ids"
	"uba/internal/oracle"
	"uba/internal/simnet"
)

// plantedPartitionScenario is a configuration whose violation is caused
// by the NETWORK, not a Byzantine coalition: the earlydecide twin under
// a partition that splits the correct nodes by input parity during the
// round their inputs propagate. Each side adopts its own side's input
// and decides at round 5 — a deterministic disagreement with zero
// Byzantine slots. The plan carries decoy events (a late heal, a crash
// of an unknown node, a loss rule scoped to an unknown node) the
// shrinker must learn to discard.
func plantedPartitionScenario() Scenario {
	const seed, correct = 42, 6
	all := ids.Sparse(rand.New(rand.NewSource(seed)), correct)
	var evens, odds []uint64
	for i, id := range all {
		if i%2 == 0 {
			evens = append(evens, uint64(id)) // inputs 0
		} else {
			odds = append(odds, uint64(id)) // inputs 1
		}
	}
	return Scenario{
		Arena:     ArenaConsensus,
		Correct:   correct,
		Seed:      seed,
		MaxRounds: 30,
		Twin:      TwinEarlyDecide,
		Faults: &simnet.FaultPlan{
			Seed: 1,
			Events: []simnet.FaultEvent{
				{Round: 2, Kind: simnet.FaultPartition, Groups: [][]uint64{evens, odds}},
				{Round: 3, Kind: simnet.FaultDrop, Node: 999_999_999, Rate: 0.5}, // decoy
				{Round: 7, Kind: simnet.FaultCrash, Node: 999_999_998},           // decoy
				{Round: 9, Kind: simnet.FaultHeal},                               // decoy
			},
		},
	}
}

// TestPlantedPartitionViolationIsDetected asserts the fault plan alone
// (no Byzantine slots) trips the agreement oracle on the planted-bug
// twin.
func TestPlantedPartitionViolationIsDetected(t *testing.T) {
	t.Parallel()
	out, err := Run(plantedPartitionScenario())
	if err != nil {
		t.Fatal(err)
	}
	v, ok := out.Fired("earlydecide-agreement")
	if !ok {
		t.Fatalf("partition-planted bug not detected; violations = %+v", out.Violations)
	}
	if v.Round != 5 {
		t.Fatalf("violation at round %d, want 5 (the planted decision round)", v.Round)
	}
}

// TestShrinkMinimizesFaultPlan is the acceptance criterion for the
// fault-aware shrinker: the planted partition violation minimizes to a
// plan of at most 2 events (here: the partition alone), with the decoy
// events gone, and the minimized repro replays to the same verdict.
func TestShrinkMinimizesFaultPlan(t *testing.T) {
	t.Parallel()
	s := plantedPartitionScenario()
	repro, ok := Shrink(s, "earlydecide-agreement", 400)
	if !ok {
		t.Fatal("shrink could not confirm the violation")
	}
	min := repro.Scenario
	if min.Faults == nil {
		t.Fatal("shrinker discarded the fault plan the violation needs")
	}
	if len(min.Faults.Events) > 2 {
		t.Fatalf("shrunk plan still has %d events, want <= 2: %+v", len(min.Faults.Events), min.Faults.Events)
	}
	keptPartition := false
	for _, e := range min.Faults.Events {
		if e.Kind == simnet.FaultPartition {
			keptPartition = true
		}
	}
	if !keptPartition {
		t.Fatalf("shrunk plan lost the causal partition: %+v", min.Faults.Events)
	}
	if len(min.Slots) != 0 {
		t.Fatalf("shrunk slots = %+v, want none (the network causes this one)", min.Slots)
	}
	// The population shrinks too. (Greedy single-decrement stops at 5:
	// at 4 correct nodes both partition sides coincidentally adopt the
	// same value, and the shrinker cannot jump the non-monotonic gap
	// down to the 2-node instance that would also fire.)
	if min.Correct >= s.Correct {
		t.Fatalf("shrunk correct = %d, want < %d", min.Correct, s.Correct)
	}
	if min.MaxRounds != repro.Violation.Round {
		t.Fatalf("shrunk MaxRounds = %d, violation round = %d", min.MaxRounds, repro.Violation.Round)
	}
	for i := 0; i < 2; i++ {
		out, err := repro.Replay()
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		v, _ := out.Fired("earlydecide-agreement")
		if v != repro.Violation {
			t.Fatalf("replay %d verdict %+v differs from recorded %+v", i, v, repro.Violation)
		}
	}
}

// TestShrinkDropsIrrelevantFaultPlan asserts the converse: when the
// violation is caused by the coalition (the split-voter) and the fault
// plan is pure decoy, the shrinker removes the plan entirely.
func TestShrinkDropsIrrelevantFaultPlan(t *testing.T) {
	t.Parallel()
	s := plantedScenario()
	s.Faults = &simnet.FaultPlan{
		Seed: 5,
		Events: []simnet.FaultEvent{
			{Round: 20, Kind: simnet.FaultHeal},
			{Round: 21, Kind: simnet.FaultCrash, Node: 999_999_997},
		},
	}
	repro, ok := Shrink(s, "earlydecide-agreement", 400)
	if !ok {
		t.Fatal("shrink could not confirm the violation")
	}
	if repro.Scenario.Faults != nil {
		t.Fatalf("decoy fault plan survived shrinking: %+v", repro.Scenario.Faults)
	}
	if len(repro.Scenario.Slots) != 1 || repro.Scenario.Slots[0].Strategy != StrategySplitVoter {
		t.Fatalf("shrunk slots = %+v, want exactly the split-voter", repro.Scenario.Slots)
	}
}

// TestDecodeReproRejectsInvalid is the repro-hygiene contract behind
// `ubasim -repro`: malformed or structurally empty files fail with a
// diagnostic instead of replaying as a meaningless zero-value run.
func TestDecodeReproRejectsInvalid(t *testing.T) {
	t.Parallel()
	good, ok := Shrink(plantedPartitionScenario(), "earlydecide-agreement", 400)
	if !ok {
		t.Fatal("shrink failed")
	}
	data, err := EncodeRepro(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRepro(data); err != nil {
		t.Fatalf("valid repro rejected: %v", err)
	}
	cases := map[string]string{
		"empty object":       "{}",
		"truncated":          string(data[:len(data)/2]),
		"not json":           "never gonna replay",
		"zero scenario":      `{"violation":{"oracle":"x","round":1,"detail":"d"}}`,
		"unknown arena":      `{"scenario":{"arena":99,"correct":2,"max_rounds":5},"violation":{"oracle":"x"}}`,
		"bad fault plan":     `{"scenario":{"arena":3,"correct":2,"max_rounds":5,"faults":{"events":[{"round":0,"kind":"heal"}]}},"violation":{"oracle":"x"}}`,
		"retired fault kind": `{"scenario":{"arena":3,"correct":2,"max_rounds":5,"faults":{"events":[{"round":1,"kind":"corrupt","rate":1}]}},"violation":{"oracle":"x"}}`,
		"unknown strategy":   `{"scenario":{"arena":3,"correct":2,"max_rounds":5,"slots":[{"strategy":"meteor"}]},"violation":{"oracle":"x"}}`,
	}
	for name, body := range cases {
		if _, err := DecodeRepro([]byte(body)); err == nil {
			t.Errorf("%s: invalid repro accepted", name)
		}
		// The same scenario handed to Run is rejected by the same rules,
		// before any round runs: a bad fault plan is not left for simnet
		// to latch and return from round 1, nor a bad slot for
		// Materialize to find once the network is built.
		var r Repro
		if json.Unmarshal([]byte(body), &r) != nil {
			continue
		}
		if _, err := Run(r.Scenario); err == nil || !strings.HasPrefix(err.Error(), "chaos: invalid scenario: ") {
			t.Errorf("%s: Run = %v, want an up-front invalid-scenario error", name, err)
		}
	}
}

// TestPlanFaultsShape asserts the campaign generator produces valid,
// deterministic, Byzantine-scoped plans.
func TestPlanFaultsShape(t *testing.T) {
	t.Parallel()
	for _, arena := range []Arena{ArenaBroadcast, ArenaConsensus, ArenaOrdering} {
		for seed := int64(1); seed <= 5; seed++ {
			s := Scenario{
				Arena: arena, Correct: 7, Seed: seed, MaxRounds: 60,
				Slots: []SlotSpec{{Strategy: StrategySilent}, {Strategy: StrategyNoise, Seed: 3}},
			}
			plan := PlanFaults(s)
			if plan == nil {
				t.Fatalf("%v/seed=%d: no plan for a scenario with Byzantine slots", arena, seed)
			}
			if err := plan.Validate(); err != nil {
				t.Fatalf("%v/seed=%d: generated plan invalid: %v", arena, seed, err)
			}
			if !reflect.DeepEqual(plan, PlanFaults(s)) {
				t.Fatalf("%v/seed=%d: generator not deterministic", arena, seed)
			}
			// Model discipline: every node-scoped event targets a
			// Byzantine id.
			all := ids.Sparse(rand.New(rand.NewSource(seed)), s.Correct+len(s.Slots))
			byz := map[uint64]bool{}
			for _, id := range all[s.Correct:] {
				byz[uint64(id)] = true
			}
			for _, e := range plan.Events {
				switch e.Kind {
				case simnet.FaultDrop, simnet.FaultCrash, simnet.FaultRecover:
					if !byz[e.Node] {
						t.Fatalf("%v/seed=%d: %s targets non-Byzantine node %d", arena, seed, e.Kind, e.Node)
					}
				case simnet.FaultPartition:
					// The coalition must be quarantined away from every
					// correct node, which must all share one group.
					if len(e.Groups) != 2 {
						t.Fatalf("%v/seed=%d: partition groups = %d, want 2", arena, seed, len(e.Groups))
					}
					for _, raw := range e.Groups[0] {
						if byz[raw] {
							t.Fatalf("%v/seed=%d: Byzantine node %d in the correct group", arena, seed, raw)
						}
					}
				}
			}
		}
	}
	if plan := PlanFaults(Scenario{Arena: ArenaConsensus, Correct: 5, Seed: 1, MaxRounds: 60}); plan != nil {
		t.Fatalf("plan for a scenario with no Byzantine slots: %+v", plan)
	}
}

// TestFaultCampaignQuick is the fast in-model check (the full
// metamorphic sweep lives in soak_test.go): a real-protocol cell under
// the generated fault plan must stay clean — the degradation oracles
// absorb the disruption, and the safety oracles have nothing to say
// about a quarantined coalition.
func TestFaultCampaignQuick(t *testing.T) {
	t.Parallel()
	cfg := CampaignConfig{
		Arenas:       []Arena{ArenaConsensus, ArenaBroadcast},
		Seeds:        2,
		Correct:      7,
		Byzantine:    2,
		MaxRounds:    80,
		ShrinkBudget: 50,
		Faults:       FaultsByzantine,
	}
	report, err := RunCampaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		for _, r := range report.Repros {
			t.Errorf("spurious violation under in-model faults: %+v (faults %+v)", r.Violation, r.Scenario.Faults)
		}
		for _, e := range report.Errors {
			t.Errorf("error: %s", e)
		}
	}
}

// TestScenarioFaultsJSONRoundTrip asserts the fault plan serializes
// with the scenario (the repro contract for fault-plan campaigns).
func TestScenarioFaultsJSONRoundTrip(t *testing.T) {
	t.Parallel()
	s := plantedPartitionScenario()
	repro := Repro{Scenario: s, Violation: mustViolation(t, s), ShrunkFrom: s}
	data, err := EncodeRepro(repro)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"faults"`) {
		t.Fatal("encoded repro carries no fault plan")
	}
	back, err := DecodeRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, repro) {
		t.Fatalf("round trip changed the repro:\n  in:  %+v\n  out: %+v", repro, back)
	}
	if _, err := back.Replay(); err != nil {
		t.Fatalf("decoded fault repro does not replay: %v", err)
	}
}

// mustViolation runs s and returns its first violation.
func mustViolation(t *testing.T, s Scenario) oracle.Violation {
	t.Helper()
	out, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) == 0 {
		t.Fatal("scenario produced no violation")
	}
	return out.Violations[0]
}
