package uba_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"uba"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// runnerOutcome captures everything observable about one protocol run:
// the message-level transcript, the traffic report, and the protocol's
// own result. Every worker count must reproduce all three byte-for-byte
// — this is the guard on the round engine's one parallel region: nodes
// stepped inline and nodes stepped by several goroutines are the same
// execution.
type runnerOutcome struct {
	events []trace.Event
	report trace.Report
	result any
}

// outcome separates a facade result (a pointer to any of the uba result
// structs) into its traffic Report and the rest, so the matrix compares
// and reports the two apart.
func outcome(res any, err error) (any, trace.Report, error) {
	if err != nil {
		return nil, trace.Report{}, err
	}
	v := reflect.ValueOf(res).Elem()
	f := v.FieldByName("Report")
	report := f.Interface().(trace.Report)
	f.SetZero()
	return v.Interface(), report, nil
}

// equivalenceRuns are the matrix's protocol inputs: one facade call per
// family at the 7+2 configuration.
var equivalenceRuns = []struct {
	protocol string
	run      func(cfg uba.Config) (any, trace.Report, error)
}{
	{"consensus", func(cfg uba.Config) (any, trace.Report, error) {
		return outcome(uba.Consensus(cfg, []float64{0, 1, 0, 1, 0, 1, 0}))
	}},
	{"broadcast", func(cfg uba.Config) (any, trace.Report, error) {
		return outcome(uba.ReliableBroadcast(cfg, []byte("equivalence-body"), 10))
	}},
	{"rotor", func(cfg uba.Config) (any, trace.Report, error) {
		return outcome(uba.Rotor(cfg))
	}},
	// vector is the family whose Steps contend hardest for the round's
	// once-built block index; trb and renaming count echoes through it.
	{"vector", func(cfg uba.Config) (any, trace.Report, error) {
		return outcome(uba.InteractiveConsistency(cfg, []float64{0, 10, 20, 30, 40, 50, 60}))
	}},
	{"trb", func(cfg uba.Config) (any, trace.Report, error) {
		return outcome(uba.TerminatingBroadcast(cfg, []byte("equivalence-body"), true))
	}},
	{"renaming", func(cfg uba.Config) (any, trace.Report, error) {
		return outcome(uba.Renaming(cfg))
	}},
	{"approx", func(cfg uba.Config) (any, trace.Report, error) {
		return outcome(uba.ApproximateAgreement(cfg, []float64{0, 10, 20, 30, 40, 50, 60}))
	}},
	{"iterated-approx", func(cfg uba.Config) (any, trace.Report, error) {
		return outcome(uba.IteratedApproximateAgreement(cfg, []float64{0, 10, 20, 30, 40, 50, 60}, 4))
	}},
	{"parallelcon", func(cfg uba.Config) (any, trace.Report, error) {
		inputs := make([][]uba.Pair, 7)
		for i := range inputs {
			inputs[i] = []uba.Pair{{Instance: 1, Value: float64(i % 2)}, {Instance: uint64(2 + i%3), Value: float64(i)}}
		}
		return outcome(uba.ParallelConsensus(cfg, inputs))
	}},
	// ordering is the one long-lived family: a short OrderingCluster
	// session in which every founder submits one event, compared by every
	// member's chain. Its facade keeps the coalition silent under every
	// adversary but none.
	{"ordering", orderingSession},
}

// orderingSession submits one event at each founder, runs 40 rounds and
// returns every member's chain, in member order.
func orderingSession(cfg uba.Config) (any, trace.Report, error) {
	oc, err := uba.NewOrderingCluster(cfg)
	if err != nil {
		return nil, trace.Report{}, err
	}
	defer oc.Close()
	for i, m := range oc.Members() {
		if err := oc.SubmitEvent(m, float64(i)); err != nil {
			return nil, trace.Report{}, err
		}
	}
	if err := oc.RunRounds(40); err != nil {
		return nil, trace.Report{}, err
	}
	var chains [][]uba.Event
	for _, m := range oc.Members() {
		chain, err := oc.Chain(m)
		if err != nil {
			return nil, trace.Report{}, err
		}
		if len(chain) == 0 {
			return nil, trace.Report{}, fmt.Errorf("member %d finalized no event in 40 rounds; chain comparison is vacuous", m)
		}
		chains = append(chains, chain)
	}
	return chains, oc.Report(), nil
}

func runOnce(t *testing.T, protocol string, run func(uba.Config) (any, trace.Report, error), adv uba.Adversary, workers int) runnerOutcome {
	t.Helper()
	log := trace.NewEventLog(500_000)
	result, report, err := run(uba.Config{
		Correct:   7,
		Byzantine: 2,
		Adversary: adv,
		Seed:      42,
		Workers:   workers,
		EventLog:  log,
	})
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", protocol, adv, workers, err)
	}
	if log.Dropped() > 0 {
		t.Fatalf("%s/%s workers=%d: transcript truncated (%d dropped)",
			protocol, adv, workers, log.Dropped())
	}
	return runnerOutcome{events: log.Events(), report: report, result: result}
}

// TestRunnerEquivalenceAcrossAdversaries runs every adversary strategy
// against every family of equivalenceRuns with worker counts 1 (inline
// stepping), 2, 3 and 5 on a shared seed and
// asserts byte-identical transcripts (every delivery: round, from, to,
// kind, size, broadcast flag, in order), identical Report totals and
// per-round breakdowns, and identical protocol results. The counts are
// explicit so real dispatch happens on a one-core host too, and one
// multi-worker count is run twice so a worker-scheduling dependence —
// which could agree with the inline run on one lucky schedule — fails
// the matrix directly. The engine-level matrix with private schedulers
// of several budgets lives in internal/simnet/determinism_test.go.
//
// Under -race this is also the simnet.Process isolation gate (a CI step
// of that name): every multi-worker run steps one network's nodes on
// several goroutines, so a Step that writes state another node's Step
// reads or writes — a package-level variable, or memory two nodes
// share through a pointer — is a data race in every family's row.
func TestRunnerEquivalenceAcrossAdversaries(t *testing.T) {
	t.Parallel()
	adversaries := []uba.Adversary{
		uba.AdversaryNone, uba.AdversarySilent, uba.AdversaryCrash,
		uba.AdversarySplit, uba.AdversaryGhost, uba.AdversaryNoise,
	}
	for _, er := range equivalenceRuns {
		for _, adv := range adversaries {
			protocol, run, adv := er.protocol, er.run, adv
			t.Run(fmt.Sprintf("%s/%s", protocol, adv), func(t *testing.T) {
				t.Parallel()
				base := runOnce(t, protocol, run, adv, 1)
				if len(base.events) == 0 {
					t.Fatal("one-worker run recorded no deliveries; transcript comparison is vacuous")
				}
				for _, workers := range []int{2, 3, 5, 3} {
					got := runOnce(t, protocol, run, adv, workers)
					if !slices.Equal(base.events, got.events) {
						i := 0
						for i < len(base.events) && i < len(got.events) && base.events[i] == got.events[i] {
							i++
						}
						t.Fatalf("workers=%d: transcripts diverge at event %d of %d/%d:\n  workers=1: %+v\n  got:       %+v",
							workers, i, len(base.events), len(got.events), at(base.events, i), at(got.events, i))
					}
					if !reflect.DeepEqual(base.report, got.report) {
						t.Fatalf("workers=%d: reports differ:\n  workers=1: %v\n  got:       %v", workers, base.report, got.report)
					}
					if !reflect.DeepEqual(base.result, got.result) {
						t.Fatalf("workers=%d: protocol results differ:\n  workers=1: %+v\n  got:       %+v",
							workers, base.result, got.result)
					}
				}
			})
		}
	}
}

func at(events []trace.Event, i int) any {
	if i < len(events) {
		return events[i]
	}
	return "<past end>"
}

// crashingChatter is a chatter process whose Step panics in a chosen
// round, after queueing a send the containment layer must discard.
type crashingChatter struct {
	simnet.ChatterProcess
	Round int
}

func (c *crashingChatter) Step(env *simnet.RoundEnv) {
	if env.Round == c.Round {
		env.Broadcast(wire.Event{Round: uint64(env.Round), Body: []byte("boom")})
		panic("injected crash")
	}
	c.ChatterProcess.Step(env)
}

// runCrashWorkload runs twelve chatter processes, four of which panic in
// staggered rounds, at the given worker count, and returns the transcript
// and crash records.
func runCrashWorkload(t *testing.T, workers int) ([]trace.Event, []simnet.CrashRecord) {
	t.Helper()
	log := trace.NewEventLog(500_000)
	net := simnet.New(simnet.Config{MaxRounds: 20, EventLog: log, Workers: workers})
	defer net.Close()
	rng := rand.New(rand.NewSource(7))
	nodeIDs := ids.Sparse(rng, 12)
	for i, id := range nodeIDs {
		var p simnet.Process = &simnet.ChatterProcess{Ident: id}
		if i%3 == 0 {
			p = &crashingChatter{ChatterProcess: simnet.ChatterProcess{Ident: id}, Round: 2 + i/3}
		}
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func(n *simnet.Network) bool { return n.Round() >= 8 }); err != nil {
		t.Fatal(err)
	}
	if log.Dropped() > 0 {
		t.Fatalf("transcript truncated (%d dropped)", log.Dropped())
	}
	return log.Events(), net.Crashes()
}

// TestCrashEquivalenceAcrossWorkerCounts asserts that contained Step
// panics are deterministic: the full transcript — including every
// NodeCrashed event — and the crash records are identical for worker
// counts 1 (inline), 2, 3 and 5.
func TestCrashEquivalenceAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	baseEvents, baseCrashes := runCrashWorkload(t, 1)
	crashed := 0
	for _, e := range baseEvents {
		if e.Kind == trace.KindNodeCrashed {
			crashed++
		}
	}
	if crashed != 4 {
		t.Fatalf("%d NodeCrashed events, want 4", crashed)
	}
	if len(baseCrashes) != 4 {
		t.Fatalf("%d crash records, want 4: %+v", len(baseCrashes), baseCrashes)
	}
	for _, workers := range []int{2, 3, 5} {
		events, crashes := runCrashWorkload(t, workers)
		if !slices.Equal(baseEvents, events) {
			i := 0
			for i < len(baseEvents) && i < len(events) && baseEvents[i] == events[i] {
				i++
			}
			t.Fatalf("workers=%d: transcripts diverge at event %d of %d/%d:\n  workers=1: %+v\n  got:       %+v",
				workers, i, len(baseEvents), len(events), at(baseEvents, i), at(events, i))
		}
		if !reflect.DeepEqual(baseCrashes, crashes) {
			t.Fatalf("workers=%d: crash records differ:\n  workers=1: %+v\n  got:       %+v",
				workers, baseCrashes, crashes)
		}
	}
}
