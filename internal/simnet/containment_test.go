package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"uba/internal/ids"
	"uba/internal/trace"
	"uba/internal/wire"
)

// wirePayload builds a distinct fixed-size payload per tag.
func wirePayload(i int) wire.Payload {
	return wire.Event{Round: uint64(i), Body: []byte{1}}
}

// This file tests the fault-containment layer: panic-to-crash-fault
// conversion, per-node per-round send quotas, and the round
// observer feed. The cross-worker-count determinism of containment is
// asserted by the "panicky" workload in determinism_test.go and by the
// facade-level matrix in worker_equivalence_test.go.

// panicAt is a chatter-like process whose Step panics in a chosen round.
type panicAt struct {
	ChatterProcess
	Round int
}

func (p *panicAt) Step(env *RoundEnv) {
	if env.Round == p.Round {
		// Queue a send first so containment must also discard the
		// crashing round's partial output.
		env.Broadcast(wirePayload(env.Round))
		panic("injected step fault")
	}
	p.ChatterProcess.Step(env)
}

// flood queues `count` distinct unicasts to every peer each round from
// round 2 on — the amplification workload the quotas must contain. In
// round 1 it broadcasts, so that the peers, which all broadcast too, and
// it are each other's contacts.
type flood struct {
	Ident ids.ID
	Peers []ids.ID
	Count int
}

func (f *flood) ID() ids.ID { return f.Ident }
func (f *flood) Done() bool { return false }
func (f *flood) Step(env *RoundEnv) {
	if env.Round == 1 {
		env.Broadcast(wirePayload(0))
		return
	}
	for i := 0; i < f.Count; i++ {
		for _, to := range f.Peers {
			env.Send(to, wirePayload(env.Round*1000+i))
		}
	}
}

// recorder captures the observer feed.
type roundRecorder struct {
	rounds []int
	events [][]trace.Event
}

func (r *roundRecorder) ObserveRound(round int, events []trace.Event) {
	r.rounds = append(r.rounds, round)
	cp := make([]trace.Event, len(events))
	copy(cp, events)
	r.events = append(r.events, cp)
}

func TestPanicContainedAsCrashFault(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	nodeIDs := ids.Sparse(rng, 5)
	log := trace.NewEventLog(0)
	net := New(Config{MaxRounds: 20, EventLog: log})
	victim := nodeIDs[2]
	for _, id := range nodeIDs {
		var p Process
		if id == victim {
			p = &panicAt{ChatterProcess: ChatterProcess{Ident: id}, Round: 3}
		} else {
			p = &ChatterProcess{Ident: id}
		}
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := net.RunRound(); err != nil {
			t.Fatalf("round %d: containment failed: %v", i+1, err)
		}
	}

	// The crash is recorded with the panic value.
	crashes := net.Crashes()
	if len(crashes) != 1 {
		t.Fatalf("crashes = %+v, want exactly one", crashes)
	}
	if crashes[0].Node != victim || crashes[0].Round != 3 {
		t.Fatalf("crash = %+v, want node %v round 3", crashes[0], victim)
	}
	if !strings.Contains(crashes[0].Reason, "injected step fault") {
		t.Fatalf("crash reason %q missing panic value", crashes[0].Reason)
	}
	if !net.state(victim).crashed {
		t.Fatal("victim not crashed")
	}

	// Exactly one NodeCrashed event, in round 3, and the crashed node
	// neither sends nor receives from round 3 on.
	var crashEvents, victimSendsAfter, victimRecvAfter int
	for _, e := range log.Events() {
		if e.Kind == trace.KindNodeCrashed {
			crashEvents++
			if e.Round != 3 || e.From != uint64(victim) {
				t.Fatalf("crash event %+v, want round 3 node %v", e, victim)
			}
			continue
		}
		// A delivery in round r was sent in round r-1, so anything the
		// victim sent in its crash round (3) or later would surface as
		// a delivery with Round > 3 — including the partial queue of
		// the crashing Step, which containment must discard.
		if e.Round > 3 && e.From == uint64(victim) {
			victimSendsAfter++
		}
		if e.Round > 3 && e.To == uint64(victim) {
			victimRecvAfter++
		}
	}
	if crashEvents != 1 {
		t.Fatalf("NodeCrashed events = %d, want 1", crashEvents)
	}
	if victimSendsAfter != 0 || victimRecvAfter != 0 {
		t.Fatalf("crashed node still active: %d sends, %d deliveries after crash",
			victimSendsAfter, victimRecvAfter)
	}

	// AllDone treats the crash fault as finished (everyone else here
	// never halts, so only the victim matters).
	if !AllDone([]ids.ID{victim})(net) {
		t.Fatal("AllDone should count a crashed node as finished")
	}
}

func TestSendQuotaContainsFlood(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	nodeIDs := ids.Sparse(rng, 4)
	log := trace.NewEventLog(0)
	col := &trace.Collector{}
	net := New(Config{MaxRounds: 10, EventLog: log, Collector: col, SendQuota: 3})
	flooder := nodeIDs[0]
	for _, id := range nodeIDs {
		var p Process
		if id == flooder {
			p = &flood{Ident: id, Peers: nodeIDs, Count: 5} // 20 sends/round, quota 3
		} else {
			p = &ChatterProcess{Ident: id}
		}
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 2) // round 1: introductions; round 2: the flood

	var quotaEvents int
	for _, e := range log.Events() {
		if e.Kind == trace.KindQuotaDrop {
			quotaEvents++
			if e.From != uint64(flooder) || e.Round != 2 {
				t.Fatalf("quota event for %d in round %d, want flooder %v in round 2", e.From, e.Round, flooder)
			}
			if e.Size != 17 { // 20 queued - 3 quota
				t.Fatalf("quota event dropped %d, want 17", e.Size)
			}
		}
	}
	if quotaEvents != 1 {
		t.Fatalf("quota events = %d, want 1", quotaEvents)
	}
	// Accounting reflects the post-quota stream: 3 flooder sends + 3
	// chatter broadcasts.
	if got := col.Report().PerRound[1].Sends; got != 6 {
		t.Fatalf("sends = %d, want 6 (quota applied before accounting)", got)
	}
}

// observedRun is what one run exposes through its two event feeds.
type observedRun struct {
	feed [][]trace.Event // per-round records as the Observer saw them, copied
	log  []trace.Event   // the EventLog transcript
}

// runObserved drives the named scenario with both feeds attached:
// "panic" is chatter with one contained Step panic; "faults" puts a
// partition, a rate-1 link drop, a quota drop and a contained panic
// into the same round (3), so every producer of the round record
// contributes to one record.
func runObserved(t *testing.T, scenario string, workers int) observedRun {
	t.Helper()
	nodeIDs := ids.Sparse(rand.New(rand.NewSource(17)), 6)
	log := trace.NewEventLog(0)
	rec := &roundRecorder{}
	cfg := Config{MaxRounds: 20, EventLog: log, Observer: rec}
	procs := make([]Process, len(nodeIDs))
	for i, id := range nodeIDs {
		procs[i] = &ChatterProcess{Ident: id}
	}
	switch scenario {
	case "panic":
		procs[1] = &panicAt{ChatterProcess: ChatterProcess{Ident: nodeIDs[1]}, Round: 2}
	case "faults":
		cfg.SendQuota = 4
		cfg.FaultPlan = &FaultPlan{Seed: 5, Events: []FaultEvent{
			{Round: 3, Kind: FaultPartition, Groups: [][]uint64{
				{uint64(nodeIDs[0]), uint64(nodeIDs[1]), uint64(nodeIDs[2]), uint64(nodeIDs[3]), uint64(nodeIDs[4])},
				{uint64(nodeIDs[5])},
			}},
			{Round: 3, Kind: FaultDrop, From: uint64(nodeIDs[2]), To: uint64(nodeIDs[3]), Rate: 1},
		}}
		procs[0] = &flood{Ident: nodeIDs[0], Peers: nodeIDs, Count: 1} // 6 unicasts > quota 4
		procs[1] = &panicAt{ChatterProcess: ChatterProcess{Ident: nodeIDs[1]}, Round: 3}
	default:
		t.Fatalf("unknown scenario %q", scenario)
	}
	net := New(cfg)
	net.forceWorkers(workers)
	defer net.Close()
	for _, p := range procs {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 5)
	if len(rec.rounds) != 5 {
		t.Fatalf("observer saw %d rounds, want 5", len(rec.rounds))
	}
	return observedRun{feed: rec.events, log: log.Events()}
}

// recordStage classifies one event of a round's record by its producer,
// in the canonical order: 0 fault-plan events, 1 containment events
// (step merge), 2 link-fault events (serial route filter), 3 message
// events (the scenarios send only input and event payloads).
func recordStage(e trace.Event) int {
	switch {
	case e.Kind == wire.KindInput.String() || e.Kind == wire.KindEvent.String():
		return 3
	case e.Kind == trace.KindQuotaDrop || e.Kind == trace.KindNodeCrashed:
		return 1
	case e.Kind == trace.KindLinkDrop && e.Enc == "":
		return 2
	default:
		return 0 // partition groups, rule activations ("rate=…")
	}
}

// TestRoundRecordMirrorsStorage pins what the round record is against
// the transcript, for inline and real multi-worker dispatch: (a) the
// record's engine events are the transcript's engine events, in order,
// and lead the record plan → containment → link → message; (b) a
// round's message events — one per stored message — expand to exactly
// the transcript's deliveries of that round once every To == 0
// broadcast is fanned over the receivers that read its block: every
// receiver live that round, or on a link-fault round those that share
// the sender's partition group and that no drop rule names; (c) so a
// chatter round holds B + U message events, not n·B.
func TestRoundRecordMirrorsStorage(t *testing.T) {
	t.Parallel()
	for _, scenario := range []string{"panic", "faults"} {
		// reads reports whether to read the block that holds from's
		// broadcasts in round: from round 3 the faults scenario's
		// partition puts the last node in a group of its own, and its
		// drop rule names the third and the fourth.
		nodeIDs := ids.Sparse(rand.New(rand.NewSource(17)), 6)
		reads := func(round int, from, to uint64) bool {
			if scenario != "faults" || round < 3 {
				return true
			}
			last := uint64(nodeIDs[5])
			return to != uint64(nodeIDs[2]) && to != uint64(nodeIDs[3]) && (from == last) == (to == last)
		}
		var base observedRun
		for _, workers := range []int{1, 3, 5} {
			label := fmt.Sprintf("%s/workers=%d", scenario, workers)
			run := runObserved(t, scenario, workers)
			if workers == 1 {
				base = run
			} else if !slices.Equal(run.log, base.log) {
				t.Fatalf("%s: transcript differs from workers=1", label)
			}
			live := make(map[uint64]bool) // every node, until its crash event
			for _, e := range run.log {
				if e.To != 0 {
					live[e.To] = true
				}
			}
			rest := run.log // the transcript not yet matched to a record
			for i, record := range run.feed {
				round, stage, messages := i+1, 0, 0
				var seen [4]bool
				want := make(map[trace.Event]int) // the record, expanded per receiver
				for _, e := range record {
					st := recordStage(e)
					if st < stage {
						t.Fatalf("%s round %d: stage-%d event after stage %d: %+v", label, round, st, stage, e)
					}
					if at := round + st/3; e.Round != at { // messages land next round
						t.Fatalf("%s round %d: stage-%d event stamped round %d, want %d", label, round, st, e.Round, at)
					}
					stage, seen[st] = st, true
					if st < 3 {
						if len(rest) == 0 || rest[0] != e {
							t.Fatalf("%s round %d: engine event %+v is not the transcript's next event", label, round, e)
						}
						rest = rest[1:]
						if e.Kind == trace.KindNodeCrashed {
							delete(live, e.From)
						}
						continue
					}
					messages++
					// Message events expose the canonical encoding for monitors.
					if e.Enc == "" {
						t.Fatalf("%s: message event missing Enc: %+v", label, e)
					}
					if e.To != 0 {
						want[e]++
						continue
					}
					for to := range live {
						if reads(round, e.From, to) {
							e.To = to
							want[e]++
						}
					}
				}
				deliveries := 0
				for len(rest) > 0 && recordStage(rest[0]) == 3 && rest[0].Round == round+1 {
					want[rest[0]]--
					rest = rest[1:]
					deliveries++
				}
				for e, d := range want {
					if d != 0 {
						t.Fatalf("%s round %d: record and transcript differ by %d on delivery %+v", label, round, d, e)
					}
				}
				if scenario == "panic" && round == 1 && (messages != 6 || deliveries != 36) {
					t.Fatalf("%s: chatter round holds %d message events for %d deliveries, want B = 6 for n·B = 36", label, messages, deliveries)
				}
				if scenario == "faults" && round == 3 && seen != [4]bool{true, true, true, true} {
					t.Fatalf("%s: round 3 record is missing a producer (plan, containment, link, message = %v)", label, seen)
				}
			}
			if len(rest) != 0 {
				t.Fatalf("%s: %d transcript events match no record", label, len(rest))
			}
		}
	}
}
