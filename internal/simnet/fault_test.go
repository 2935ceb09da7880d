package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"uba/internal/ids"
	"uba/internal/simnet/sched"
	"uba/internal/trace"
)

// This file tests the round-scheduled fault-injection layer (fault.go):
// plan validation, the semantics of every event kind, the determinism
// contract under a non-trivial plan (byte-identical transcripts across
// worker counts and concurrent jobs), and the quota × crash interplay.

// runFaultWorkload runs the sparsemix workload under the given plan and
// captures the observable state. workers == 0 is the default Config
// (inline dispatch on the shared scheduler); positive counts force a
// private scheduler of that size.
func runFaultWorkload(t *testing.T, plan *FaultPlan, seed int64, workers, rounds int) determinismOutcome {
	t.Helper()
	log := trace.NewEventLog(500_000)
	col := &trace.Collector{}
	net := New(Config{MaxRounds: rounds + 1, EventLog: log, Collector: col, FaultPlan: plan})
	if workers > 0 {
		net.forceWorkers(workers)
		defer net.Close()
	}
	rng := rand.New(rand.NewSource(seed))
	nodeIDs := ids.Sparse(rng, 12)
	out := determinismOutcome{logs: make(map[ids.ID][]string)}
	procs := make([]*sparseMix, 0, len(nodeIDs))
	for i, id := range nodeIDs {
		p := &sparseMix{id: id, idx: i, peers: nodeIDs}
		procs = append(procs, p)
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, rounds)
	for _, p := range procs {
		out.logs[p.id] = p.log
	}
	if log.Dropped() > 0 {
		t.Fatalf("transcript truncated (%d dropped)", log.Dropped())
	}
	out.events = log.Events()
	out.report = col.Report()
	return out
}

// faultPlanIDs returns the deterministic id layout runFaultWorkload uses.
func faultPlanIDs(seed int64) []ids.ID {
	return ids.Sparse(rand.New(rand.NewSource(seed)), 12)
}

// nontrivialPlan exercises every fault kind at once: a quorum-splitting
// partition with churn inside it, link loss under unscoped, sender- and
// node-scoped rules, and a quota change.
func nontrivialPlan(nodeIDs []ids.ID) *FaultPlan {
	raw := make([]uint64, len(nodeIDs))
	for i, id := range nodeIDs {
		raw[i] = uint64(id)
	}
	return &FaultPlan{
		Seed: 99,
		Events: []FaultEvent{
			{Round: 2, Kind: FaultPartition, Groups: [][]uint64{raw[:6], raw[6:]}},
			{Round: 2, Kind: FaultDrop, Rate: 0.2},
			{Round: 3, Kind: FaultCrash, Node: raw[2]},
			{Round: 4, Kind: FaultDrop, From: raw[1], Rate: 0.5},
			{Round: 5, Kind: FaultHeal},
			{Round: 5, Kind: FaultDrop, Node: raw[4], Rate: 0.4},
			{Round: 6, Kind: FaultRecover, Node: raw[2]},
			{Round: 6, Kind: FaultQuota, SendQuota: 3},
			{Round: 8, Kind: FaultDrop, Rate: 0},
		},
	}
}

// TestFaultPlanDeterminism asserts the acceptance-criteria contract:
// with a non-trivial fault plan active, the transcript, the traffic
// report and every process's observed deliveries are byte-identical
// across worker counts {0,1,2,3,5}, and stable across repeats.
func TestFaultPlanDeterminism(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := nontrivialPlan(faultPlanIDs(seed))
			base := runFaultWorkload(t, plan, seed, 0, 10)
			if len(base.events) == 0 {
				t.Fatal("fault run recorded no events; comparison is vacuous")
			}
			var faults int
			for _, e := range base.events {
				switch e.Kind {
				case trace.KindPartition, trace.KindHeal, trace.KindLinkDrop,
					trace.KindNodeRecovered, trace.KindQuotaChange:
					faults++
				}
			}
			if faults < 10 {
				t.Fatalf("plan injected only %d fault events; workload too tame to certify determinism", faults)
			}
			for _, workers := range []int{1, 2, 3, 5} {
				got := runFaultWorkload(t, plan, seed, workers, 10)
				diffOutcomes(t, fmt.Sprintf("workers=%d", workers), base, got)
			}
			again := runFaultWorkload(t, plan, seed, 3, 10)
			diffOutcomes(t, "workers=3 repeat", base, again)
		})
	}
}

// TestFaultPlanJobsDeterminism re-runs the non-trivial plan as several
// concurrent jobs multiplexed over one bounded scheduler (the campaign
// shape) and asserts every job reproduces the sequential transcript,
// for scheduler budgets {1, 4}.
func TestFaultPlanJobsDeterminism(t *testing.T) {
	t.Parallel()
	const seed = int64(1)
	plan := nontrivialPlan(faultPlanIDs(seed))
	base := runFaultWorkload(t, plan, seed, 0, 10)
	for _, budget := range []int{1, 4} {
		jobs := faultJobs{
			t:    t,
			plan: plan,
			seed: seed,
			outs: make([]determinismOutcome, 4),
		}
		s := sched.New(budget)
		var phase sched.Phase
		s.Run(&phase, &jobs, len(jobs.outs), len(jobs.outs))
		s.Close()
		for j, got := range jobs.outs {
			diffOutcomes(t, fmt.Sprintf("budget=%d job=%d", budget, j), base, got)
		}
	}
}

// faultJobs runs one fault workload per task index, concurrently.
type faultJobs struct {
	t    *testing.T
	plan *FaultPlan
	seed int64
	outs []determinismOutcome
}

func (f *faultJobs) Run(i int) {
	f.outs[i] = runFaultWorkload(f.t, f.plan, f.seed, 0, 10)
}

// TestFaultPlanPresenceIsFree asserts that attaching a plan whose rules
// are never live does not change the execution: the transcript, report
// and delivery logs match a nil-plan run byte for byte.
func TestFaultPlanPresenceIsFree(t *testing.T) {
	t.Parallel()
	base := runFaultWorkload(t, nil, 3, 0, 8)
	got := runFaultWorkload(t, &FaultPlan{Seed: 42}, 3, 0, 8)
	diffOutcomes(t, "empty plan", base, got)
}

// TestFaultFilterDemotionIsInvisible asserts the broadcast-demotion
// path is semantically transparent: a plan whose only live rule has
// rate 0 forces the filter (and the dense per-receiver demotion) on
// every round, yet deliveries, inbox order, Broadcast flags, tallies
// and logs all match the nil-plan run. Only the rule-activation event
// itself may differ.
func TestFaultFilterDemotionIsInvisible(t *testing.T) {
	t.Parallel()
	base := runFaultWorkload(t, nil, 5, 0, 8)
	plan := &FaultPlan{Seed: 7, Events: []FaultEvent{{Round: 1, Kind: FaultDrop, Rate: 0}}}
	got := runFaultWorkload(t, plan, 5, 0, 8)
	activations := 0
	filtered := got.events[:0:0]
	for _, e := range got.events {
		if strings.HasPrefix(e.Enc, "rate=") {
			activations++
			continue
		}
		filtered = append(filtered, e)
	}
	if activations != 1 {
		t.Fatalf("expected exactly 1 rule-activation event, saw %d", activations)
	}
	got.events = filtered
	diffOutcomes(t, "rate-0 demotion", base, got)
}

// TestFaultPlanInvalid asserts an invalid plan latches as the network
// error and surfaces from the first RunRound. A NaN rate is out of
// range, and the kinds outside the model (a link that corrupts,
// duplicates or reorders, a correct node woken mid-run) are unknown.
func TestFaultPlanInvalid(t *testing.T) {
	t.Parallel()
	for _, plan := range []*FaultPlan{
		{Events: []FaultEvent{{Round: 0, Kind: FaultHeal}}},
		{Events: []FaultEvent{{Round: 1, Kind: "meteor"}}},
		{Events: []FaultEvent{{Round: 1, Kind: FaultDrop, Rate: 1.5}}},
		{Events: []FaultEvent{{Round: 1, Kind: FaultDrop, Rate: math.NaN()}}},
		{Events: []FaultEvent{{Round: 1, Kind: "corrupt", Rate: 0.5}}},
		{Events: []FaultEvent{{Round: 1, Kind: "duplicate", Rate: 0.5}}},
		{Events: []FaultEvent{{Round: 1, Kind: "reorder", Rate: 0.5}}},
		{Events: []FaultEvent{{Round: 1, Kind: "join", Node: 7}}},
		{Events: []FaultEvent{{Round: 1, Kind: FaultPartition}}},
		{Events: []FaultEvent{{Round: 1, Kind: FaultCrash}}},
	} {
		net := New(Config{MaxRounds: 5, FaultPlan: plan})
		err := net.Add(&ChatterProcess{Ident: 7})
		if err == nil {
			err = net.RunRound()
		}
		if err == nil {
			t.Fatalf("plan %+v: network accepted an invalid plan", plan.Events[0])
		}
		if !strings.Contains(err.Error(), "invalid fault plan") {
			t.Fatalf("plan %+v: error %q does not name the fault plan", plan.Events[0], err)
		}
	}
}

// deliveriesBetween counts transcript deliveries from -> to in the
// given (inclusive) round window.
func deliveriesBetween(events []trace.Event, from, to ids.ID, lo, hi int) int {
	count := 0
	for _, e := range events {
		if e.Round < lo || e.Round > hi || e.To != uint64(to) || e.From != uint64(from) {
			continue
		}
		switch e.Kind {
		case trace.KindPartition, trace.KindHeal, trace.KindLinkDrop,
			trace.KindNodeRecovered, trace.KindQuotaChange,
			trace.KindNodeCrashed, trace.KindQuotaDrop:
			continue
		}
		count++
	}
	return count
}

// chatterNet builds a 4-chatter network with ids {10, 20, 30, 40} and a
// transcript log attached.
func chatterNet(t *testing.T, plan *FaultPlan) (*Network, *trace.EventLog) {
	t.Helper()
	log := trace.NewEventLog(0)
	net := New(Config{MaxRounds: 50, EventLog: log, FaultPlan: plan})
	for _, id := range []ids.ID{10, 20, 30, 40} {
		if err := net.Add(&ChatterProcess{Ident: id}); err != nil {
			t.Fatal(err)
		}
	}
	return net, log
}

// TestPartitionCutsCrossGroupDelivery asserts partition semantics: while
// {10,20} | {30,40} is live, broadcasts cross the cut in neither
// direction; after heal, full fan-out resumes.
func TestPartitionCutsCrossGroupDelivery(t *testing.T) {
	t.Parallel()
	net, log := chatterNet(t, &FaultPlan{
		Seed: 1,
		Events: []FaultEvent{
			{Round: 2, Kind: FaultPartition, Groups: [][]uint64{{10, 20}, {30, 40}}},
			{Round: 4, Kind: FaultHeal},
		},
	})
	mustRounds(t, net, 6)
	events := log.Events()
	// Sends of rounds 2 and 3 (delivered 3 and 4) are cut; sends of
	// round 4 (delivered 5) cross again.
	if got := deliveriesBetween(events, 10, 30, 3, 4); got != 0 {
		t.Fatalf("partition leaked: %d deliveries 10->30 in rounds 3-4", got)
	}
	if got := deliveriesBetween(events, 30, 10, 3, 4); got != 0 {
		t.Fatalf("partition leaked: %d deliveries 30->10 in rounds 3-4", got)
	}
	if got := deliveriesBetween(events, 10, 20, 3, 4); got != 2 {
		t.Fatalf("intra-group traffic disturbed: %d deliveries 10->20 in rounds 3-4, want 2", got)
	}
	if got := deliveriesBetween(events, 10, 30, 5, 6); got != 2 {
		t.Fatalf("heal did not restore delivery: %d deliveries 10->30 in rounds 5-6, want 2", got)
	}
	if got := deliveriesBetween(events, 10, 10, 3, 4); got != 2 {
		t.Fatalf("self-delivery must survive a partition: got %d", got)
	}
}

// TestPartitionIsolatesUnlistedNodes asserts nodes in no group are cut
// off from everyone but themselves — each other included: two unlisted
// nodes are not a group.
func TestPartitionIsolatesUnlistedNodes(t *testing.T) {
	t.Parallel()
	net, log := chatterNet(t, &FaultPlan{
		Seed: 1,
		Events: []FaultEvent{
			{Round: 2, Kind: FaultPartition, Groups: [][]uint64{{10, 20}}},
		},
	})
	mustRounds(t, net, 4)
	events := log.Events()
	if got := deliveriesBetween(events, 40, 10, 3, 4); got != 0 {
		t.Fatalf("isolated node still delivered %d messages", got)
	}
	if got := deliveriesBetween(events, 40, 30, 3, 4); got != 0 {
		t.Fatalf("two isolated nodes still exchanged %d messages", got)
	}
	if got := deliveriesBetween(events, 40, 40, 3, 4); got != 2 {
		t.Fatalf("isolated node should still reach itself: got %d", got)
	}
}

// TestFaultCrashRecoverChurn asserts plan crash/recover semantics: the
// node is silent while down, revives with an empty inbox, and the
// transcript shows the churn events.
func TestFaultCrashRecoverChurn(t *testing.T) {
	t.Parallel()
	net, log := chatterNet(t, &FaultPlan{
		Seed: 1,
		Events: []FaultEvent{
			{Round: 3, Kind: FaultCrash, Node: 20},
			{Round: 5, Kind: FaultRecover, Node: 20},
		},
	})
	mustRounds(t, net, 7)
	if net.Crashed(20) {
		t.Fatal("node 20 should have recovered")
	}
	crashes := net.Crashes()
	if len(crashes) != 1 || crashes[0].Node != 20 || crashes[0].Round != 3 {
		t.Fatalf("unexpected crash records: %+v", crashes)
	}
	events := log.Events()
	// Down rounds 3 and 4: no sends, so no deliveries in rounds 4 and
	// 5. Round-2 sends were routed while it was still up (delivery
	// events at round 3 exist), but rounds 3-4 route around it, so
	// nothing lands in rounds 4-5 and the round-5 revival starts with
	// an empty inbox.
	if got := deliveriesBetween(events, 20, 10, 4, 5); got != 0 {
		t.Fatalf("crashed node still sent: %d deliveries", got)
	}
	if got := deliveriesBetween(events, 10, 20, 4, 5); got != 0 {
		t.Fatalf("crashed node still received: %d deliveries", got)
	}
	// Back up from round 5: its round-5 send delivers in round 6.
	if got := deliveriesBetween(events, 20, 10, 6, 7); got != 2 {
		t.Fatalf("recovered node not sending: %d deliveries, want 2", got)
	}
	var kinds []string
	for _, e := range events {
		if e.Kind == trace.KindNodeCrashed || e.Kind == trace.KindNodeRecovered {
			kinds = append(kinds, fmt.Sprintf("%d:%s@%d", e.From, e.Kind, e.Round))
		}
	}
	want := []string{"20:node-crashed@3", "20:node-recovered@5"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("churn events %v, want %v", kinds, want)
	}
}

// TestFaultQuotaChange asserts a quota event rewrites the live quotas
// and the transcript shows when.
func TestFaultQuotaChange(t *testing.T) {
	t.Parallel()
	log := trace.NewEventLog(0)
	peers := []ids.ID{10, 20}
	net := New(Config{
		MaxRounds: 10, EventLog: log,
		FaultPlan: &FaultPlan{
			Seed:   1,
			Events: []FaultEvent{{Round: 3, Kind: FaultQuota, SendQuota: 2}},
		},
	})
	if err := net.Add(&flood{Ident: 10, Peers: peers, Count: 3}); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(&ChatterProcess{Ident: 20}); err != nil {
		t.Fatal(err)
	}
	mustRounds(t, net, 4)
	var drops, changes int
	for _, e := range log.Events() {
		switch e.Kind {
		case trace.KindQuotaDrop:
			drops++
			if e.Round < 3 {
				t.Fatalf("quota drop at round %d, before the quota existed", e.Round)
			}
			if e.Size != 4 { // flood queues 3*2 sends; 2 survive
				t.Fatalf("quota drop of %d sends, want 4", e.Size)
			}
		case trace.KindQuotaChange:
			changes++
			if e.Round != 3 || e.Size != 2 {
				t.Fatalf("unexpected quota-change event: %+v", e)
			}
		}
	}
	if drops != 2 || changes != 1 {
		t.Fatalf("drops=%d changes=%d, want 2 and 1", drops, changes)
	}
}

// A drop rule reaches exactly the links its scope names: over every
// ordered pair of the four chatters, a rate-1 drop rule — unscoped, by
// sender, by receiver, by either endpoint, by both — removes the round's
// delivery exactly when the pair matches it, and every other link, which
// the filter passes without consulting the rules, delivers as on a
// healthy round.
func TestRateRulesReachExactlyTheLinksTheyScope(t *testing.T) {
	t.Parallel()
	nodes := []ids.ID{10, 20, 30, 40}
	for _, rule := range []FaultEvent{
		{Kind: FaultDrop, Rate: 1},
		{Kind: FaultDrop, From: 20, Rate: 1},
		{Kind: FaultDrop, To: 30, Rate: 1},
		{Kind: FaultDrop, Node: 40, Rate: 1},
		{Kind: FaultDrop, From: 10, To: 20, Rate: 1},
	} {
		rule.Round = 2
		net, log := chatterNet(t, &FaultPlan{Seed: 1, Events: []FaultEvent{rule}})
		mustRounds(t, net, 3)
		events := log.Events()
		for _, from := range nodes {
			for _, to := range nodes {
				matched := (rule.From == 0 || ids.ID(rule.From) == from) &&
					(rule.To == 0 || ids.ID(rule.To) == to) &&
					(rule.Node == 0 || ids.ID(rule.Node) == from || ids.ID(rule.Node) == to)
				want := 1
				if matched {
					want = 0
				}
				if got := deliveriesBetween(events, from, to, 3, 3); got != want {
					t.Fatalf("rule %+v: %d deliveries %v->%v, want %d", rule, got, from, to, want)
				}
			}
		}
	}
}

// floodPanic queues Count unicasts to each peer, then panics at Round —
// the same round it exceeds the send quota.
type floodPanic struct {
	flood
	Round int
}

func (f *floodPanic) Step(env *RoundEnv) {
	f.flood.Step(env)
	if env.Round == f.Round {
		panic("flood then die")
	}
}

// TestQuotaCrashSameRoundOrdering is the SendQuota × crash interplay
// contract: a node that panics in the same round it exceeds its quota
// produces quota-drop then node-crashed, adjacent and in that order, in
// byte-identical transcripts across worker counts {0,1,3,5} and
// concurrent jobs {1,4}.
func TestQuotaCrashSameRoundOrdering(t *testing.T) {
	t.Parallel()
	peers := []ids.ID{11, 22, 33}
	run := func(workers int) []trace.Event {
		log := trace.NewEventLog(0)
		net := New(Config{MaxRounds: 8, EventLog: log, SendQuota: 2})
		if workers > 0 {
			net.forceWorkers(workers)
			defer net.Close()
		}
		if err := net.Add(&floodPanic{
			flood: flood{Ident: 11, Peers: peers, Count: 3},
			Round: 2,
		}); err != nil {
			t.Fatal(err)
		}
		for _, id := range peers[1:] {
			if err := net.Add(&ChatterProcess{Ident: id}); err != nil {
				t.Fatal(err)
			}
		}
		mustRounds(t, net, 4)
		return log.Events()
	}
	base := run(0)
	idx := -1
	for i, e := range base {
		if e.Round == 2 && e.Kind == trace.KindQuotaDrop && e.From == 11 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no quota-drop event in the crash round")
	}
	if e := base[idx+1]; e.Kind != trace.KindNodeCrashed || e.From != 11 || e.Round != 2 {
		t.Fatalf("quota-drop not followed by node-crashed: next event %+v", e)
	}
	// flood queues 3 unicasts per peer = 9 sends; quota 2 → 7 dropped.
	if base[idx].Size != 7 {
		t.Fatalf("quota-drop of %d sends, want 7", base[idx].Size)
	}
	for _, workers := range []int{1, 3, 5} {
		got := run(workers)
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Fatalf("workers=%d: transcript differs from workers=0", workers)
		}
	}
	for _, budget := range []int{1, 4} {
		outs := make([][]trace.Event, 4)
		jobs := eventJobs{run: func(i int) { outs[i] = run(0) }}
		s := sched.New(budget)
		var phase sched.Phase
		s.Run(&phase, &jobs, len(outs), len(outs))
		s.Close()
		for j, got := range outs {
			if fmt.Sprint(got) != fmt.Sprint(base) {
				t.Fatalf("budget=%d job=%d: transcript differs", budget, j)
			}
		}
	}
}

// eventJobs adapts a closure to sched.Task.
type eventJobs struct{ run func(i int) }

func (e *eventJobs) Run(i int) { e.run(i) }
