package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// This file asserts the engine-level determinism contract: the EventLog
// transcript, the Collector report (totals and per-round breakdown), and
// every process's observed deliveries are identical for any worker
// count — inline stepping (1) and real multi-worker stepping — and
// across repeated runs of the same worker count (i.e. independent of
// worker scheduling). The facade-level matrix across adversaries and
// protocols lives in worker_equivalence_test.go; this one forces
// private multi-worker schedulers so parallel Steps are exercised even
// on a single-core host.

// determinismOutcome is everything observable about one engine run.
type determinismOutcome struct {
	events []trace.Event
	report trace.Report
	logs   map[ids.ID][]string // per-process delivery logs, in order
}

// runDeterminismWorkload executes the named workload with the given
// worker count, on a private scheduler of the given budget, and
// captures the full observable state.
func runDeterminismWorkload(t *testing.T, workload string, seed int64, workers, budget int) determinismOutcome {
	t.Helper()
	log := trace.NewEventLog(500_000)
	col := &trace.Collector{}
	cfg := Config{MaxRounds: 40, EventLog: log, Collector: col}
	if workload == "panicky" {
		// Tight quotas so the containment path (quota drops) is part of
		// the transcript being compared, not just the crash events.
		cfg.SendQuota = 4
	}
	net := New(cfg)
	net.forceSched(workers, budget)
	defer net.Close()
	rng := rand.New(rand.NewSource(seed))
	nodeIDs := ids.Sparse(rng, 14)
	out := determinismOutcome{logs: make(map[ids.ID][]string)}

	switch workload {
	case "gossip": // mixed broadcast/unicast/silence with halting nodes
		procs := make([]*gossip, 0, len(nodeIDs))
		for i, id := range nodeIDs {
			g := &gossip{
				id:    id,
				rng:   rand.New(rand.NewSource(seed + int64(i) + 1)),
				peers: nodeIDs,
			}
			procs = append(procs, g)
			if err := net.Add(g); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.Run(AllDone(nodeIDs)); err != nil {
			t.Fatal(err)
		}
		for _, g := range procs {
			out.logs[g.id] = g.log
		}
	case "chatter": // pure broadcast storm, nobody halts
		for _, id := range nodeIDs {
			if err := net.Add(&ChatterProcess{Ident: id}); err != nil {
				t.Fatal(err)
			}
		}
		mustRounds(t, net, 6)
	case "sparsemix": // dense shared broadcast block + sparse unicast arena
		procs := make([]*sparseMix, 0, len(nodeIDs))
		for i, id := range nodeIDs {
			p := &sparseMix{id: id, idx: i, peers: nodeIDs}
			procs = append(procs, p)
			if err := net.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		mustRounds(t, net, 8)
		for _, p := range procs {
			out.logs[p.id] = p.log
		}
	case "panicky": // crashes + quota drops interleaved with chatter
		for i, id := range nodeIDs {
			var p Process
			switch i % 4 {
			case 0: // panics at a node-dependent round
				p = &panicAt{ChatterProcess: ChatterProcess{Ident: id}, Round: 2 + i/4}
			case 1: // floods past the send quota every round
				p = &flood{Ident: id, Peers: nodeIDs, Count: 1}
			default:
				p = &ChatterProcess{Ident: id}
			}
			if err := net.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		mustRounds(t, net, 8)
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	if log.Dropped() > 0 {
		t.Fatalf("transcript truncated (%d dropped)", log.Dropped())
	}
	out.events = log.Events()
	out.report = col.Report()
	return out
}

func diffOutcomes(t *testing.T, label string, base, got determinismOutcome) {
	t.Helper()
	if !slices.Equal(base.events, got.events) {
		i := 0
		for i < len(base.events) && i < len(got.events) && base.events[i] == got.events[i] {
			i++
		}
		t.Fatalf("%s: transcripts diverge at event %d of %d/%d:\n  base: %+v\n  got:  %+v",
			label, i, len(base.events), len(got.events), at(base.events, i), at(got.events, i))
	}
	if !reflect.DeepEqual(base.report, got.report) {
		t.Fatalf("%s: reports differ:\n  base: %v\n  got:  %v", label, base.report, got.report)
	}
	if !reflect.DeepEqual(base.logs, got.logs) {
		t.Fatalf("%s: per-process delivery logs differ", label)
	}
}

func at(events []trace.Event, i int) any {
	if i < len(events) {
		return events[i]
	}
	return "<past end>"
}

// sparseMix is the workload shape the sparse delivery refactor exists
// for: every node broadcasts every round (a dense shared broadcast
// block), while from round 2 on — once every peer is a contact — a small
// round-varying subset adds unicasts (a sparse per-receiver arena).
// Deliveries are logged in inbox order, so the lazy view's merge of
// block and arena is part of the state compared across worker counts.
type sparseMix struct {
	id    ids.ID
	idx   int
	peers []ids.ID
	log   []string
}

func (s *sparseMix) ID() ids.ID { return s.id }
func (s *sparseMix) Done() bool { return false }

func (s *sparseMix) Step(env *RoundEnv) {
	for m := range env.Inbox.All() {
		s.log = append(s.log, fmt.Sprintf("%d<-%d:%x", env.Round, m.From, m.encoded))
	}
	env.Broadcast(wire.Event{Round: uint64(env.Round), Body: []byte{byte(s.idx)}})
	if env.Round > 1 && (env.Round+s.idx)%5 == 0 {
		to := s.peers[(s.idx*7+env.Round)%len(s.peers)]
		env.Send(to, wire.Event{Round: uint64(env.Round), Body: []byte("u")})
	}
}

// TestEngineDeterminismAcrossWorkerCounts runs each workload with 1
// (inline), 2, 3 and 5 workers on scheduler budgets 1 and 4 and asserts
// the complete observable state is identical, then repeats one pooled
// configuration to assert schedule-independence within a fixed worker
// count.
func TestEngineDeterminismAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	for _, workload := range []string{"gossip", "chatter", "sparsemix", "panicky"} {
		for seed := int64(1); seed <= 3; seed++ {
			workload, seed := workload, seed
			t.Run(fmt.Sprintf("%s/seed=%d", workload, seed), func(t *testing.T) {
				t.Parallel()
				base := runDeterminismWorkload(t, workload, seed, 1, 1)
				if len(base.events) == 0 {
					t.Fatal("one-worker run recorded no deliveries; comparison is vacuous")
				}
				for _, budget := range []int{1, 4} {
					for _, workers := range []int{1, 2, 3, 5} {
						got := runDeterminismWorkload(t, workload, seed, workers, budget)
						diffOutcomes(t, fmt.Sprintf("workers=%d/budget=%d", workers, budget), base, got)
					}
				}
				again := runDeterminismWorkload(t, workload, seed, 3, 4)
				diffOutcomes(t, "workers=3 repeat", base, again)
			})
		}
	}
}
