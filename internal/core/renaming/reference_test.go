package renaming

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// refNode is the renaming loop with the counters this package had before
// census.Window: every round two fresh maps of occurrences over the
// merged inbox (the engine has discarded duplicate (sender, payload)
// pairs, so occurrences are distinct senders), their keys sorted, and the
// echo rule written out twice. It is the reference the windows are held
// to, sends included.
type refNode struct {
	id  ids.ID
	cen census.Census
	set ids.Set

	changedThisRound, changedLastRound bool
	terminated                         bool
	termRound                          int
}

func (n *refNode) ID() ids.ID { return n.id }
func (n *refNode) Done() bool { return n.terminated }

func (n *refNode) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		n.cen.Observe(m.From)
	}
	switch env.Round {
	case 1:
		env.Broadcast(wire.Init{})
		return
	case 2:
		for m := range env.Inbox.All() {
			if _, ok := m.Payload.(wire.Init); ok {
				env.Broadcast(wire.IDEcho{Candidate: m.From})
			}
		}
		return
	}
	nv := n.cen.N()
	echoCounts := make(map[ids.ID]int)
	termCounts := make(map[uint64]int)
	for m := range env.Inbox.All() {
		switch p := m.Payload.(type) {
		case wire.IDEcho:
			if p.Instance == 0 {
				echoCounts[p.Candidate]++
			}
		case wire.Terminate:
			termCounts[p.Round]++
		}
	}
	candOrder := make([]ids.ID, 0, len(echoCounts))
	for p := range echoCounts {
		candOrder = append(candOrder, p)
	}
	sort.Slice(candOrder, func(i, j int) bool { return candOrder[i] < candOrder[j] })
	n.changedLastRound = n.changedThisRound
	n.changedThisRound = false
	for _, p := range candOrder {
		if n.set.Contains(p) {
			continue
		}
		if census.AtLeastThird(echoCounts[p], nv) {
			env.Broadcast(wire.IDEcho{Candidate: p})
		}
		if census.AtLeastTwoThirds(echoCounts[p], nv) {
			n.set.Add(p)
			n.changedThisRound = true
		}
	}
	if env.Round >= 4 && !n.changedThisRound && !n.changedLastRound {
		env.Broadcast(wire.Terminate{Round: uint64(env.Round - 1)})
	}
	termOrder := make([]uint64, 0, len(termCounts))
	for k := range termCounts {
		termOrder = append(termOrder, k)
	}
	sort.Slice(termOrder, func(i, j int) bool { return termOrder[i] < termOrder[j] })
	for _, k := range termOrder {
		if census.AtLeastThird(termCounts[k], nv) {
			env.Broadcast(wire.Terminate{Round: k})
		}
		if census.AtLeastTwoThirds(termCounts[k], nv) {
			n.terminated = true
			n.termRound = env.Round
		}
	}
}

// chatter is a scripted Byzantine node: from its first active round on it
// sends a seeded random part of pool every round — broadcast, unicast to
// a few peers, or both at once (the engine delivers the pair once) — and
// never reads its inbox, so it behaves the same in both networks of a
// differential run. Under a send quota the chatterers all draw from the
// same stretch of the pool, which moves round by round, so that what
// gets through is still enough senders per payload to cross thresholds.
type chatter struct {
	id      ids.ID
	rng     *rand.Rand
	peers   []ids.ID
	pool    []wire.Payload
	quota   int
	unicast bool
	from    int
}

func (c *chatter) ID() ids.ID { return c.id }
func (c *chatter) Done() bool { return false }

func (c *chatter) Step(env *simnet.RoundEnv) {
	if env.Round < c.from {
		return
	}
	stretch := c.pool
	if c.quota > 0 {
		at := env.Round * 7 % len(c.pool)
		stretch = append(slices.Clone(c.pool[at:]), c.pool[:at]...)[:c.quota]
	}
	for _, p := range stretch {
		how := c.rng.Intn(4)
		if how == 0 {
			continue
		}
		if how != 2 || !c.unicast {
			env.Broadcast(p)
		}
		if how >= 2 && c.unicast {
			for k := 1 + c.rng.Intn(4); k > 0; k-- {
				env.Send(c.peers[c.rng.Intn(len(c.peers))], p)
			}
		}
	}
}

// tap records everything delivered to it and how it arrived.
type tap struct {
	id     ids.ID
	heard  []string
	shared int // messages read from the shared block
	direct int // messages read from the private segment
}

func (r *tap) ID() ids.ID { return r.id }
func (r *tap) Done() bool { return false }

func (r *tap) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		r.heard = append(r.heard, fmt.Sprintf("r%d %v %x", env.Round, m.From, wire.Encode(m.Payload)))
	}
	for _, g := range env.Inbox.Said() {
		r.shared += g.By.Count()
	}
	r.direct += len(env.Inbox.Direct())
}

// The three ways a round reaches a reader.
const (
	shapeBlock     = "block"          // everything broadcast: the shared block only
	shapeUnicasts  = "block+unicasts" // Byzantine unicasts beside the block
	shapeLinkFault = "linkfault"      // a live link rule: everything private
)

// outcome is what a node ends a run with.
type outcome struct {
	set       []ids.ID
	termRound int
}

// differentialRun runs one seeded scenario — seven nodes under test, five
// chatterers echoing ghosts (also under a foreign instance tag) and
// spoofing terminate(k), one of them silent until round 5 (a sender the
// census meets late), and a tap — and returns what the tap heard and how
// each node ended.
func differentialRun(t *testing.T, seed int64, shape string, quota int,
	mk func(id ids.ID) simnet.Process, outcomeOf func(simnet.Process) outcome) ([]string, []outcome, *tap) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := ids.Sparse(rng, 13)
	nodes, byz, tapID := all[:7], all[7:12], all[12]

	cfg := simnet.Config{MaxRounds: 40, SendQuota: quota}
	if shape == shapeLinkFault {
		cfg.FaultPlan = &simnet.FaultPlan{Seed: seed, Events: []simnet.FaultEvent{
			{Round: 3, Kind: simnet.FaultDrop, Rate: 0.1},
		}}
	}
	net := simnet.New(cfg)
	defer net.Close()

	var pool []wire.Payload
	for _, ghost := range []ids.ID{11, 22, 33, 44, byz[0]} {
		pool = append(pool, wire.IDEcho{Candidate: ghost})
	}
	pool = append(pool, wire.IDEcho{Instance: 1, Candidate: 55})
	for k := uint64(3); k <= 8; k++ {
		pool = append(pool, wire.Terminate{Round: k})
	}
	var procs []simnet.Process
	for _, id := range nodes {
		p := mk(id)
		procs = append(procs, p)
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range byz {
		c := &chatter{id: id, rng: rand.New(rand.NewSource(seed*100 + int64(i))), peers: all,
			pool: pool, quota: quota, unicast: shape != shapeBlock, from: 1}
		if i == len(byz)-1 {
			c.from = 5
		}
		if err := net.AddByzantine(c); err != nil {
			t.Fatal(err)
		}
	}
	rec := &tap{id: tapID}
	if err := net.AddByzantine(rec); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 14; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	outcomes := make([]outcome, len(procs))
	for i, p := range procs {
		outcomes[i] = outcomeOf(p)
	}
	return rec.heard, outcomes, rec
}

// Differential test against the deleted counters: in all three delivery
// shapes, with and without a send quota smaller than a round's echoes,
// nodes counting through census.Window send what the map-and-sort nodes
// send — the tap hears the same (round, sender, payload) sequence, so
// under a quota the surviving prefix of every node's queue (identifier
// echoes, then the node's own terminate, then terminate relays, each
// ascending) is the same — and end with the same set in the same round.
func TestWindowsMatchMapAndSortReference(t *testing.T) {
	t.Parallel()
	for _, shape := range []string{shapeBlock, shapeUnicasts, shapeLinkFault} {
		for _, quota := range []int{0, 3} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/quota=%d/seed=%d", shape, quota, seed), func(t *testing.T) {
					t.Parallel()
					got, gotEnd, rec := differentialRun(t, seed, shape, quota,
						func(id ids.ID) simnet.Process { return New(id) },
						func(p simnet.Process) outcome {
							n := p.(*Node)
							return outcome{n.set.Members(), n.termRound}
						})
					want, wantEnd, _ := differentialRun(t, seed, shape, quota,
						func(id ids.ID) simnet.Process { return &refNode{id: id} },
						func(p simnet.Process) outcome {
							n := p.(*refNode)
							return outcome{n.set.Members(), n.termRound}
						})
					if !slices.Equal(got, want) {
						for i := range min(len(got), len(want)) {
							if got[i] != want[i] {
								t.Fatalf("delivery %d: heard %s, reference %s", i, got[i], want[i])
							}
						}
						t.Fatalf("heard %d deliveries, reference %d", len(got), len(want))
					}
					for i := range wantEnd {
						if !slices.Equal(gotEnd[i].set, wantEnd[i].set) || gotEnd[i].termRound != wantEnd[i].termRound {
							t.Fatalf("node %d ended with %+v, reference %+v", i, gotEnd[i], wantEnd[i])
						}
					}
					switch {
					case shape == shapeBlock && rec.direct != 0:
						t.Fatalf("%d private deliveries in an all-broadcast run", rec.direct)
					case shape == shapeUnicasts && (rec.direct == 0 || rec.shared == 0):
						t.Fatalf("shared=%d private=%d: want both", rec.shared, rec.direct)
					case shape == shapeLinkFault && rec.direct == 0:
						t.Fatal("the link rule demoted nothing")
					}
				})
			}
		}
	}
}

// Emission order under a quota, spelled out. Four Byzantine nodes of
// eleven echo five ghosts and spoof terminate(1) and terminate(2) every
// round: each ghost and each spoof sits at 4 ≥ n_v/3 senders, and the
// seven correct ids at 7 < 2n_v/3, so in round 3 every correct node owes
// twelve identifier echoes and two terminate relays. Under a SendQuota of
// 13 from that round on, what survives is the twelve echoes and the
// smaller terminate: identifier echoes go out before terminate relays,
// each in ascending key order.
func TestQuotaKeepsEchoesBeforeTerminates(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	all := ids.Sparse(rng, 12)
	nodes, byz, tapID := all[:7], all[7:11], all[11]
	net := simnet.New(simnet.Config{MaxRounds: 10, FaultPlan: &simnet.FaultPlan{Events: []simnet.FaultEvent{
		{Round: 3, Kind: simnet.FaultQuota, SendQuota: 13},
	}}})
	defer net.Close()
	for _, id := range nodes {
		if err := net.Add(New(id)); err != nil {
			t.Fatal(err)
		}
	}
	pool := []wire.Payload{wire.Terminate{Round: 2}, wire.Terminate{Round: 1}}
	for _, ghost := range []ids.ID{55, 11, 44, 22, 33} {
		pool = append(pool, wire.IDEcho{Candidate: ghost})
	}
	for _, id := range byz {
		if err := net.AddByzantine(&spammer{id: id, pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	rec := &tap{id: tapID}
	if err := net.AddByzantine(rec); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for _, from := range nodes {
		for _, p := range append([]ids.ID{11, 22, 33, 44, 55}, nodes...) {
			want = append(want, fmt.Sprintf("r4 %v %x", from, wire.Encode(wire.IDEcho{Candidate: p})))
		}
		want = append(want, fmt.Sprintf("r4 %v %x", from, wire.Encode(wire.Terminate{Round: 1})))
	}
	var got []string
	correct := ids.NewSet(nodes...)
	for _, line := range rec.heard {
		var round int
		var from uint64
		if _, err := fmt.Sscanf(line, "r%d id(%d)", &round, &from); err != nil {
			t.Fatalf("unreadable tap line %q: %v", line, err)
		}
		if round == 4 && correct.Contains(ids.ID(from)) {
			got = append(got, line)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("round-3 sends that survived the quota:\n%v\nwant\n%v", got, want)
	}
}

// spammer broadcasts its whole pool every round.
type spammer struct {
	id   ids.ID
	pool []wire.Payload
}

func (s *spammer) ID() ids.ID { return s.id }
func (s *spammer) Done() bool { return false }
func (s *spammer) Step(env *simnet.RoundEnv) {
	for _, p := range s.pool {
		env.Broadcast(p)
	}
}
