package oracle

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"uba/internal/core/consensus"
	"uba/internal/core/relbcast"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// listed is the Prober of a hand-written claim list, read when probed.
func listed(claims *[]Claim) Prober {
	return func(emit func(Claim) bool) {
		for _, c := range *claims {
			if !emit(c) {
				return
			}
		}
	}
}

var decision = Key{Kind: KeyDecision}

func TestAgreementOracle(t *testing.T) {
	t.Parallel()
	a, b, z := OpinionValue(wire.V(1)), OpinionValue(wire.V(2)), OpinionValue(wire.Bot())
	claims := []Claim{
		{Node: 1, Key: decision, Value: a},
		{Node: 2, Key: decision, Value: a},
		{Node: 3, Key: Key{Kind: KeyChain, A: 3}, Value: b},
	}
	o := NewAgreement("agree", listed(&claims))
	if v := o.Observe(1, nil); v != nil {
		t.Fatalf("agreeing claims fired: %+v", v)
	}
	claims = append(claims, Claim{Node: 4, Key: decision, Value: z})
	v := o.Observe(2, nil)
	if v == nil {
		t.Fatal("disagreement not detected")
	}
	if v.Oracle != "agree" || v.Round != 2 {
		t.Fatalf("violation = %+v", v)
	}
	if want := `nodes 1 and 4 disagree on "decision": "1(3ff0000000000000)" vs "⊥"`; v.Detail != want {
		t.Fatalf("detail %q, want %q", v.Detail, want)
	}
	// Nothing is remembered from one round to the next: a node that
	// takes its answer back leaves a clean round behind.
	claims = claims[:3]
	if v := o.Observe(3, nil); v != nil {
		t.Fatalf("agreeing claims fired after a split round: %+v", v)
	}
	// Nor is anything skipped for having been seen: a node that rewrites
	// an answer it gave rounds ago is caught in the round it does.
	claims[1].Value = b
	if v := o.Observe(4, nil); v == nil || !strings.Contains(v.Detail, "nodes 1 and 2") {
		t.Fatalf("rewritten claim not detected: %+v", v)
	}
	claims[0].Value = b
	if v := o.Observe(5, nil); v != nil {
		t.Fatalf("nodes that changed their answer together fired: %+v", v)
	}
}

func TestValidityOracle(t *testing.T) {
	t.Parallel()
	good, evil := OpinionValue(wire.V(1)), OpinionValue(wire.V(-1))
	claims := []Claim{{Node: 7, Key: decision, Value: good}}
	o := NewValidity("valid", listed(&claims),
		func(c Claim) bool { return c.Value == good })
	if v := o.Observe(1, nil); v != nil {
		t.Fatalf("valid claim fired: %+v", v)
	}
	claims[0].Value = evil
	v := o.Observe(2, nil)
	if v == nil || v.Round != 2 {
		t.Fatalf("invalid claim not detected: %+v", v)
	}
	if want := `node 7 claims invalid "decision" = "-1(bff0000000000000)"`; v.Detail != want {
		t.Fatalf("detail %q, want %q", v.Detail, want)
	}
}

func TestTerminationBoundOracle(t *testing.T) {
	t.Parallel()
	pending := []ids.ID{4, 9}
	o := NewTerminationBound("term", 10, func() []ids.ID { return pending })
	if v := o.Observe(9, nil); v != nil {
		t.Fatalf("fired before the bound: %+v", v)
	}
	if v := o.Observe(10, nil); v == nil {
		t.Fatal("pending nodes at the bound not detected")
	}
	pending = nil
	if v := o.Observe(11, nil); v != nil {
		t.Fatalf("fired with nothing pending: %+v", v)
	}
}

// rbEvent fabricates the message event of an RBMessage delivered to
// `to` (0: a stored-once broadcast, delivered to the whole live roster).
func rbEvent(from, to ids.ID, p wire.RBMessage) trace.Event {
	return trace.Event{
		Round:     1,
		From:      uint64(from),
		To:        uint64(to),
		Kind:      p.Kind().String(),
		Broadcast: to == 0,
		Enc:       string(wire.Encode(p)),
	}
}

// forgingRelay is a wrong relay: a node registered as correct that, in
// round 1, broadcasts an rbmessage naming another node as its source.
type forgingRelay struct{ id, claims ids.ID }

func (f *forgingRelay) ID() ids.ID { return f.id }
func (f *forgingRelay) Done() bool { return false }
func (f *forgingRelay) Step(env *simnet.RoundEnv) {
	if env.Round == 1 {
		env.Broadcast(wire.RBMessage{Source: f.claims, Body: []byte("hello")})
	}
}

func TestNoForgedSenderOracle(t *testing.T) {
	t.Parallel()
	correct := ids.NewSet(10, 20, 30)
	genuine := wire.RBMessage{Source: 10, Body: []byte("m")}
	for _, tc := range []struct {
		name     string
		events   []trace.Event
		accepted []RBAcceptance
		want     string // substring of the violation detail, "" for silence
	}{
		{"genuine broadcast stored once", []trace.Event{rbEvent(10, 0, genuine)},
			[]RBAcceptance{{Node: 20, Source: 10, Body: []byte("m")}}, ""},
		{"genuine arena copy", []trace.Event{rbEvent(10, 20, genuine)},
			[]RBAcceptance{{Node: 20, Source: 10, Body: []byte("m")}}, ""},
		{"byzantine-source acceptance", nil,
			[]RBAcceptance{{Node: 20, Source: 99, Body: []byte("x")}}, ""},
		{"forged acceptance", []trace.Event{rbEvent(10, 0, genuine)},
			[]RBAcceptance{{Node: 30, Source: 10, Body: []byte("forged")}}, "forged"},
		{"correct node relays a foreign source", []trace.Event{rbEvent(20, 0, genuine)},
			nil, "claiming source 10"},
	} {
		o := NewNoForgedSender("forge", correct, func(emit func(RBAcceptance) bool) {
			for _, acc := range tc.accepted {
				if !emit(acc) {
					return
				}
			}
		})
		v := o.Observe(1, tc.events)
		if (v == nil) != (tc.want == "") || (v != nil && !strings.Contains(v.Detail, tc.want)) {
			t.Errorf("%s: violation %+v, want detail %q", tc.name, v, tc.want)
		}
	}

	// On a real run: a relbcast source and relays, one of which is a
	// wrong relay, registered as correct, that puts the source's id on an
	// rbmessage it sends itself. The oracle catches the wrong protocol in
	// the round it transmits; the same run with an honest relay in that
	// slot stays silent.
	for _, forge := range []bool{false, true} {
		nodeIDs := ids.Sparse(rand.New(rand.NewSource(5)), 5)
		source, relay := nodeIDs[0], nodeIDs[1]
		nodes := []*relbcast.Node{relbcast.NewSource(source, []byte("hello"))}
		procs := []simnet.Process{nodes[0]}
		for _, id := range nodeIDs[1:] {
			if forge && id == relay {
				procs = append(procs, &forgingRelay{id: id, claims: source})
				continue
			}
			nodes = append(nodes, relbcast.NewRelay(id))
			procs = append(procs, nodes[len(nodes)-1])
		}
		suite := NewSuite(ForBroadcast(nodes, ids.NewSet(nodeIDs...))...)
		net := simnet.New(simnet.Config{MaxRounds: 50, Observer: suite})
		for _, p := range procs {
			if err := net.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if err := net.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		net.Close()

		v := suite.First()
		want := fmt.Sprintf("correct node %d transmitted rbmessage claiming source %d", relay, source)
		switch {
		case !forge && v != nil:
			t.Errorf("honest relay: oracle fired: %+v", v)
		case forge && (v == nil || v.Oracle != "broadcast-unforgeability" || v.Round != 1 || v.Detail != want):
			t.Errorf("wrong relay: violation %+v, want broadcast-unforgeability in round 1 with %q", v, want)
		}
	}
}

func TestSuiteRecordsFirstViolationPerOracle(t *testing.T) {
	t.Parallel()
	fires := 0
	always := NewFunc("always", func(round int, _ []trace.Event) *Violation {
		fires++
		return &Violation{Oracle: "always", Round: round, Detail: "boom"}
	})
	quiet := NewFunc("quiet", func(int, []trace.Event) *Violation { return nil })
	s := NewSuite(always, quiet)
	for r := 1; r <= 5; r++ {
		s.ObserveRound(r, nil)
	}
	if fires != 1 {
		t.Fatalf("fired oracle observed %d times, want 1", fires)
	}
	if got := s.Violations(); len(got) != 1 || got[0].Round != 1 {
		t.Fatalf("violations = %+v", got)
	}
	if !s.Failed() || s.First() == nil || s.First().Oracle != "always" {
		t.Fatalf("First() = %+v", s.First())
	}
}

// TestSuiteReadsMessagesOnlyForAReader: a suite asks the engine for the
// message events exactly when one of its oracles reads them — the
// unforgeability monitor, bare or inside a degradation wrapper — and
// its answer follows Add and Wrap. TestBroadcastOraclesCleanRun shows
// why the answer matters: a broadcast suite fed no message events never
// learns a genuine pair, and its clean run fires.
func TestSuiteReadsMessagesOnlyForAReader(t *testing.T) {
	t.Parallel()
	quiet := NewFunc("quiet", func(int, []trace.Event) *Violation { return nil })
	forge := NewNoForgedSender("forge", ids.NewSet(1), func(func(RBAcceptance) bool) {})
	s := NewSuite(quiet, NewComplexityFor("consensus", 0), NewDegraded(quiet, 2))
	if s.ReadsMessages() {
		t.Fatal("a suite of non-readers reads message events")
	}
	s.Add(forge)
	if !s.ReadsMessages() {
		t.Fatal("adding the unforgeability oracle did not make the suite a reader")
	}
	s.Wrap(func(o Oracle) Oracle { return NewDegraded(o, 2) })
	if !s.ReadsMessages() {
		t.Fatal("wrapping the unforgeability oracle hid its reading")
	}
	s.Wrap(func(o Oracle) Oracle {
		if o.Name() == "forge" {
			return quiet
		}
		return nil
	})
	if s.ReadsMessages() {
		t.Fatal("the suite still reads message events after its reader was replaced")
	}
}

// TestConsensusOraclesCleanRun attaches the consensus suite to a fully
// correct run and requires silence.
func TestConsensusOraclesCleanRun(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	nodeIDs := ids.Sparse(rng, 5)
	nodes := make([]*consensus.Node, 0, len(nodeIDs))
	inputs := make([]wire.Value, 0, len(nodeIDs))
	for i, id := range nodeIDs {
		in := wire.V(float64(i % 2))
		inputs = append(inputs, in)
		nodes = append(nodes, consensus.New(id, in))
	}
	suite := NewSuite(ForConsensus(nodes, inputs, 300)...)
	net := simnet.New(simnet.Config{MaxRounds: 300, Observer: suite})
	for _, n := range nodes {
		if err := net.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(simnet.AllDone(nodeIDs)); err != nil {
		t.Fatal(err)
	}
	if suite.Failed() {
		t.Fatalf("clean run violated: %+v", suite.Violations())
	}
}

// TestBroadcastOraclesCleanRun feeds the unforgeability monitor real
// wire traffic: a correct source's broadcast must be learned as genuine
// and the acceptances must pass.
func TestBroadcastOraclesCleanRun(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	nodeIDs := ids.Sparse(rng, 5)
	nodes := make([]*relbcast.Node, 0, len(nodeIDs))
	for i, id := range nodeIDs {
		if i == 0 {
			nodes = append(nodes, relbcast.NewSource(id, []byte("hello")))
		} else {
			nodes = append(nodes, relbcast.NewRelay(id))
		}
	}
	suite := NewSuite(ForBroadcast(nodes, ids.NewSet(nodeIDs...))...)
	net := simnet.New(simnet.Config{MaxRounds: 50, Observer: suite})
	for _, n := range nodes {
		if err := net.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := nodes[1].HasAccepted(nodeIDs[0], []byte("hello")); !ok {
		t.Fatal("fixture broken: broadcast never accepted")
	}
	if suite.Failed() {
		t.Fatalf("clean broadcast run violated: %+v", suite.Violations())
	}
}

// TestSuiteViolationIsDeterministic runs the same planted-disagreement
// scenario twice and requires identical violations.
func TestSuiteViolationIsDeterministic(t *testing.T) {
	t.Parallel()
	run := func() []Violation {
		rng := rand.New(rand.NewSource(9))
		nodeIDs := ids.Sparse(rng, 4)
		round := 0
		probe := func(emit func(Claim) bool) {
			if round < 3 {
				return
			}
			// Planted: nodes report diverging decisions from round 3 on.
			_ = emit(Claim{Node: nodeIDs[0], Key: decision, Value: OpinionValue(wire.V(0))}) &&
				emit(Claim{Node: nodeIDs[1], Key: decision, Value: OpinionValue(wire.V(1))})
		}
		suite := NewSuite(NewAgreement("planted-agreement", probe))
		net := simnet.New(simnet.Config{MaxRounds: 10, Observer: suite})
		for _, id := range nodeIDs {
			if err := net.Add(&simnet.ChatterProcess{Ident: id}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			round = i + 1
			if err := net.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		return suite.Violations()
	}
	a := run()
	b := run()
	if len(a) != 1 || a[0].Round != 3 {
		t.Fatalf("violations = %+v, want one at round 3", a)
	}
	if len(b) != 1 || a[0] != b[0] {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}
