package oracle

import (
	"math"
	"slices"
	"testing"

	"uba/internal/adversary"
	"uba/internal/allocgate"
	"uba/internal/core/approx"
	"uba/internal/core/consensus"
	"uba/internal/core/ordering"
	"uba/internal/core/relbcast"
	"uba/internal/core/renaming"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// world is one network's correct nodes of one family.
type world struct {
	procs []simnet.Process
	nodes any // the family's own []*Node
	// oracles is the family's For* suite over this world's nodes
	// followed by those of the given worlds of the same family.
	oracles func(others ...world) []Oracle
}

func worldOf[N simnet.Process](nodes []N, oracles func([]N) []Oracle) world {
	w := world{nodes: nodes}
	for _, n := range nodes {
		w.procs = append(w.procs, n)
	}
	w.oracles = func(others ...world) []Oracle {
		all := slices.Clone(nodes)
		for _, o := range others {
			all = append(all, o.nodes.([]N)...)
		}
		return oracles(all)
	}
	return w
}

// family builds worlds of one protocol family. variant 0 and variant 1
// are two networks that each run clean and cannot both be right: other
// inputs, another body, another event, one more member.
type family struct {
	name string
	grow func(variant int, correct, all []ids.ID) world
	// oracle and detail are what the family's suite reports over the
	// union of a variant-0 and a variant-1 world on ids 1, 2, 3.
	oracle, detail string
	// lacks marks a property that is about what a node does not hold
	// (totality): the union has a complaint as soon as one of the two
	// networks has run, not only when both have.
	lacks bool
}

func families() []family {
	return []family{
		{
			name: "broadcast",
			grow: func(variant int, correct, all []ids.ID) world {
				nodes := []*relbcast.Node{relbcast.NewSource(correct[0], []byte{'a' + byte(variant)})}
				for _, id := range correct[1:] {
					nodes = append(nodes, relbcast.NewRelay(id))
				}
				return worldOf(nodes, func(ns []*relbcast.Node) []Oracle {
					return ForBroadcast(ns, ids.NewSet(correct...))
				})
			},
			oracle: "broadcast-totality",
			detail: `node 1 accepted ("a", 1) in round 3 but node 1 has not by round 61`,
			lacks:  true,
		},
		{
			name: "rotor",
			grow: func(variant int, correct, all []ids.ID) world {
				var nodes []*rotor.Node
				for _, id := range correct {
					nodes = append(nodes, rotor.New(id, wire.V(float64(10*variant)+float64(id))))
				}
				return worldOf(nodes, func(ns []*rotor.Node) []Oracle { return ForRotor(ns, 100) })
			},
			oracle: "rotor-agreement",
			detail: `nodes 1 and 1 disagree on "opinion:r4:1": "1(3ff0000000000000)" vs "11(4026000000000000)"`,
		},
		{
			name: "consensus",
			grow: func(variant int, correct, all []ids.ID) world {
				var nodes []*consensus.Node
				for _, id := range correct {
					nodes = append(nodes, consensus.New(id, wire.V(float64(variant))))
				}
				return worldOf(nodes, func(ns []*consensus.Node) []Oracle {
					return ForConsensus(ns, []wire.Value{wire.V(0), wire.V(1)}, 100)
				})
			},
			oracle: "consensus-agreement",
			detail: `nodes 1 and 1 disagree on "decision": "0(0)" vs "1(3ff0000000000000)"`,
		},
		{
			name: "approx",
			grow: func(variant int, correct, all []ids.ID) world {
				var nodes []*approx.Node
				for _, id := range correct {
					nodes = append(nodes, approx.New(id, float64(100*variant)+float64(id)))
				}
				return worldOf(nodes, func(ns []*approx.Node) []Oracle {
					return ForApprox(ns, 1, 0, 1000, 100)
				})
			},
			oracle: "approx-agreement",
			detail: `outputs 2 (node 1) and 102 (node 1) differ by more than eps=1`,
		},
		{
			name: "renaming",
			grow: func(variant int, correct, all []ids.ID) world {
				// The other network has a member this one never heard of.
				if variant == 1 {
					correct = append(slices.Clone(correct), correct[len(correct)-1]+1)
				}
				var nodes []*renaming.Node
				for _, id := range correct {
					nodes = append(nodes, renaming.New(id))
				}
				return worldOf(nodes, func(ns []*renaming.Node) []Oracle { return ForRenaming(ns, 100) })
			},
			oracle: "renaming-agreement",
			detail: `nodes 1 and 1 disagree on "final-set": "1,2,3" vs "1,2,3,4"`,
		},
		{
			name: "ordering",
			grow: func(variant int, correct, all []ids.ID) world {
				var nodes []*ordering.Node
				for _, id := range correct {
					n, err := ordering.NewFounder(id, ids.NewSet(all...))
					if err != nil {
						panic(err)
					}
					nodes = append(nodes, n)
				}
				nodes[1].SubmitEvent(float64(42 + variant))
				return worldOf(nodes, func(ns []*ordering.Node) []Oracle { return ForOrdering(ns) })
			},
			oracle: "ordering-agreement",
			detail: `nodes 1 and 1 disagree on "chain:0": "r2/id(2)=42" vs "r2/id(2)=43"`,
		},
	}
}

// run drives one network of the world's nodes plus the given Byzantine
// ones for `rounds` rounds.
func (w world) run(t *testing.T, rounds int, observer simnet.RoundObserver, byz ...simnet.Process) {
	t.Helper()
	net := simnet.New(simnet.Config{MaxRounds: rounds + 1, Observer: observer})
	defer net.Close()
	for _, p := range w.procs {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range byz {
		if err := net.AddByzantine(p); err != nil {
			t.Fatal(err)
		}
	}
	for range rounds {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFamilySuitesFireOnSplitBrain shows that every family suite can
// fire: two clean networks over the same ids that were fed different
// things are each fine alone and contradict each other together. The
// union suite first looks when only one network has run and must find
// that round clean, so its violation one round later also shows that
// the claims of the first network were read again, not remembered.
func TestFamilySuitesFireOnSplitBrain(t *testing.T) {
	t.Parallel()
	const rounds = 60
	nodeIDs := ids.Consecutive(1, 3)
	// The one observed round's record: what the two sources of the
	// broadcast family put on the wire in their round 1, so that
	// unforgeability knows both bodies and only totality has a complaint.
	record := []trace.Event{
		rbEvent(1, 0, wire.RBMessage{Source: 1, Body: []byte("a")}),
		rbEvent(1, 0, wire.RBMessage{Source: 1, Body: []byte("b")}),
	}
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			a, b := f.grow(0, nodeIDs, nodeIDs), f.grow(1, nodeIDs, nodeIDs)
			union := NewSuite(a.oracles(b)...)
			a.run(t, rounds, nil)
			if !f.lacks {
				union.ObserveRound(rounds, record)
				if union.Failed() {
					t.Fatalf("one network and the other's idle nodes violated: %+v", union.Violations())
				}
			}
			b.run(t, rounds, nil)
			for _, w := range []world{a, b} {
				alone := NewSuite(w.oracles()...)
				alone.ObserveRound(rounds+1, record)
				if alone.Failed() {
					t.Fatalf("one network alone violated: %+v", alone.Violations())
				}
			}
			union.ObserveRound(rounds+1, record)
			want := Violation{Oracle: f.oracle, Round: rounds + 1, Detail: f.detail}
			if !slices.Contains(union.Violations(), want) {
				t.Fatalf("two networks together reported %+v, want %+v", union.Violations(), want)
			}
		})
	}
}

// TestSuiteAgreeingRoundAllocatesNothing is the cost model of the
// observe layer as a gate: once a run of 7 correct and 2 Byzantine nodes
// has finished, re-reading and comparing every claim costs no
// allocation, so a per-round Sprintf, Clone or map rebuild fails here.
// The family's complexity oracle joins the suite after the run, through
// Add, and the stats sweep over a quiet round's ledger is measured with
// the event sweep.
func TestSuiteAgreeingRoundAllocatesNothing(t *testing.T) {
	const rounds = 80
	all := ids.Consecutive(1, 9)
	correct, byzIDs := all[:7], all[7:]
	dir := adversary.NewDirectory(all, byzIDs)
	for _, f := range families() {
		t.Run(f.name, func(t *testing.T) {
			w := f.grow(0, correct, all)
			suite := NewSuite(w.oracles()...)
			w.run(t, rounds, suite, adversary.NewSilent(byzIDs[0]), adversary.NewRandomNoise(byzIDs[1], dir, 1))
			if suite.Failed() {
				t.Fatalf("clean run violated: %+v", suite.Violations())
			}
			registered := f.name
			if registered == "broadcast" {
				registered = "relbcast"
			}
			suite.Add(NewComplexityFor(registered, 0))
			if got := allocgate.Count(20, func() {
				suite.ObserveRound(rounds+1, nil)
				suite.ObserveRoundStats(rounds+1, simnet.RoundAccounting{Nodes: len(all)})
			}); got != 0 {
				t.Errorf("20 agreeing rounds allocated %d objects, want 0", got)
			}
			if suite.Failed() {
				t.Fatalf("re-observed run violated: %+v", suite.Violations())
			}
		})
	}
}

// TestChainEntryClaimsCompareFloatsByBits: a chain entry's value is
// compared by its IEEE bits — the same NaN on every node is agreement,
// another NaN payload or the other zero is not — and the detail still
// reads as ChainEntry.String prints it.
func TestChainEntryClaimsCompareFloatsByBits(t *testing.T) {
	t.Parallel()
	nan := math.NaN()
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	entry := func(x float64) ordering.ChainEntry {
		return ordering.ChainEntry{Round: 12, Submitter: 17, Value: x}
	}
	for _, tc := range []struct {
		name   string
		x, y   float64
		detail string
	}{
		{"same NaN", nan, nan, ""},
		{"same value", 42, 42, ""},
		{"NaN payloads", nan, otherNaN, `nodes 1 and 2 disagree on "chain:5": "r12/id(17)=NaN" vs "r12/id(17)=NaN"`},
		{"signed zeros", 0, math.Copysign(0, -1), `nodes 1 and 2 disagree on "chain:5": "r12/id(17)=0" vs "r12/id(17)=-0"`},
		{"values", 42, 43, `nodes 1 and 2 disagree on "chain:5": "` + entry(42).String() + `" vs "` + entry(43).String() + `"`},
	} {
		key := Key{Kind: KeyChain, A: 5}
		claims := []Claim{
			{Node: 1, Key: key, Value: EntryValue(entry(tc.x))},
			{Node: 2, Key: key, Value: EntryValue(entry(tc.y))},
		}
		v := NewAgreement("ordering-agreement", listed(&claims)).Observe(1, nil)
		switch {
		case tc.detail == "" && v != nil:
			t.Errorf("%s: agreeing entries fired: %+v", tc.name, v)
		case tc.detail != "" && (v == nil || v.Detail != tc.detail):
			t.Errorf("%s: violation %+v, want detail %q", tc.name, v, tc.detail)
		}
	}
	// The same holds for opinions.
	claims := []Claim{
		{Node: 1, Key: decision, Value: OpinionValue(wire.V(nan))},
		{Node: 2, Key: decision, Value: OpinionValue(wire.V(nan))},
	}
	o := NewAgreement("agree", listed(&claims))
	if v := o.Observe(1, nil); v != nil {
		t.Errorf("the same NaN opinion on two nodes fired: %+v", v)
	}
	claims[1].Value = OpinionValue(wire.V(otherNaN))
	if v := o.Observe(2, nil); v == nil {
		t.Error("two NaN payloads passed as one opinion")
	}
}
