package relbcast

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

// refNode is Algorithm 1 with the counter this package had before
// census.Window: every loop round a fresh map of occurrences over the
// merged inbox (the engine has discarded duplicate (sender, payload)
// pairs, so occurrences are distinct senders) and a sort of its keys. It
// is the reference the window is held to, sends included.
type refNode struct {
	id       ids.ID
	body     []byte
	isSource bool
	cen      census.Census
	accepted map[key]int
}

func (n *refNode) ID() ids.ID { return n.id }
func (n *refNode) Done() bool { return false }

func (n *refNode) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		n.cen.Observe(m.From)
	}
	switch env.Round {
	case 1:
		if n.isSource {
			env.Broadcast(wire.RBMessage{Source: n.id, Body: n.body})
		} else {
			env.Broadcast(wire.Present{})
		}
	case 2:
		for m := range env.Inbox.All() {
			if rb, ok := m.Payload.(wire.RBMessage); ok && m.From == rb.Source {
				env.Broadcast(wire.RBEcho{Source: rb.Source, Body: rb.Body})
			}
		}
	default:
		nv := n.cen.N()
		counts := make(map[key]int)
		for m := range env.Inbox.All() {
			if echo, ok := m.Payload.(wire.RBEcho); ok {
				counts[key{source: echo.Source, body: string(echo.Body)}]++
			}
		}
		order := make([]key, 0, len(counts))
		for k := range counts {
			order = append(order, k)
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].source != order[j].source {
				return order[i].source < order[j].source
			}
			return order[i].body < order[j].body
		})
		for _, k := range order {
			if _, done := n.accepted[k]; done {
				continue
			}
			if census.AtLeastThird(counts[k], nv) {
				env.Broadcast(wire.RBEcho{Source: k.source, Body: []byte(k.body)})
			}
			if census.AtLeastTwoThirds(counts[k], nv) {
				n.accepted[k] = env.Round
			}
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

// differentialRun runs one seeded scenario — six nodes under test (three
// of them sources), six chatterers echoing real and forged pairs, one of
// them silent until round 5 (a sender the census meets late), and a tap —
// and returns what the tap heard and what each node accepted.
func differentialRun(t *testing.T, seed int64, shape string, quota int,
	mk func(id ids.ID, body []byte) simnet.Process, acceptedOf func(simnet.Process) []Acceptance) ([]string, [][]Acceptance, *tap) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := ids.Sparse(rng, 13)
	nodes, byz, tapID := all[:6], all[6:12], all[12]

	cfg := simnet.Config{MaxRounds: 20, SendQuota: quota}
	if shape == shapeLinkFault {
		cfg.FaultPlan = &simnet.FaultPlan{Seed: seed, Events: []simnet.FaultEvent{
			{Round: 3, Kind: simnet.FaultDrop, Rate: 0.1},
		}}
	}
	net := simnet.New(cfg)
	defer net.Close()

	var pool []wire.Payload
	for _, src := range []ids.ID{nodes[0], nodes[1], nodes[2], byz[0], 777} {
		for _, body := range []string{"m0", "m1", "forged"} {
			pool = append(pool, wire.RBEcho{Source: src, Body: []byte(body)})
		}
	}
	var procs []simnet.Process
	for i, id := range nodes {
		var body []byte
		if i < 3 {
			body = []byte(fmt.Sprintf("m%d", i%2))
		}
		p := mk(id, body)
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
	for round := 1; round <= 10; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	accepted := make([][]Acceptance, len(procs))
	for i, p := range procs {
		accepted[i] = acceptedOf(p)
	}
	return rec.heard, accepted, rec
}

// Differential test against the deleted counter: in all three delivery
// shapes, with and without a send quota smaller than a round's echoes,
// nodes counting through census.Window send what the map-and-sort nodes
// send — the tap hears the same (round, sender, payload) sequence, so
// under a quota the surviving prefix of every node's queue is the same —
// and accept the same pairs in the same rounds.
func TestWindowMatchesMapAndSortReference(t *testing.T) {
	t.Parallel()
	for _, shape := range []string{shapeBlock, shapeUnicasts, shapeLinkFault} {
		for _, quota := range []int{0, 3} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/quota=%d/seed=%d", shape, quota, seed), func(t *testing.T) {
					t.Parallel()
					got, gotAcc, rec := differentialRun(t, seed, shape, quota,
						func(id ids.ID, body []byte) simnet.Process {
							if body != nil {
								return NewSource(id, body)
							}
							return NewRelay(id)
						},
						func(p simnet.Process) []Acceptance { return p.(*Node).Accepted() })
					want, wantAcc, _ := differentialRun(t, seed, shape, quota,
						func(id ids.ID, body []byte) simnet.Process {
							return &refNode{id: id, body: body, isSource: body != nil, accepted: make(map[key]int)}
						},
						func(p simnet.Process) []Acceptance {
							ref := p.(*refNode)
							return (&Node{accepted: ref.accepted}).Accepted()
						})
					if !slices.Equal(got, want) {
						for i := range min(len(got), len(want)) {
							if got[i] != want[i] {
								t.Fatalf("delivery %d: heard %s, reference %s", i, got[i], want[i])
							}
						}
						t.Fatalf("heard %d deliveries, reference %d", len(got), len(want))
					}
					accepts := 0
					for i := range wantAcc {
						if !slices.EqualFunc(gotAcc[i], wantAcc[i], func(a, b Acceptance) bool {
							return a.Source == b.Source && string(a.Body) == string(b.Body) && a.Round == b.Round
						}) {
							t.Fatalf("node %d accepted %v, reference %v", i, gotAcc[i], wantAcc[i])
						}
						accepts += len(wantAcc[i])
					}
					if accepts == 0 {
						t.Fatal("degenerate run: nothing was accepted")
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

// Emission order under a quota, spelled out: five sources, so every node
// owes five echoes in round 3, and under a SendQuota of 3 from that round
// on the three that survive are those of the three smallest source ids —
// the ascending (source, body) order the fold sends in.
func TestQuotaKeepsTheSmallestKeys(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	all := ids.Sparse(rng, 8)
	net := simnet.New(simnet.Config{MaxRounds: 10, FaultPlan: &simnet.FaultPlan{Events: []simnet.FaultEvent{
		{Round: 3, Kind: simnet.FaultQuota, SendQuota: 3},
	}}})
	defer net.Close()
	for i, id := range all[:7] {
		node := NewRelay(id)
		if i < 5 {
			node = NewSource(id, []byte("m"))
		}
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	rec := &tap{id: all[7]}
	if err := net.AddByzantine(rec); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	sources := slices.Clone(all[:5])
	slices.Sort(sources)
	var want []string
	for _, from := range all[:7] {
		for _, src := range sources[:3] {
			want = append(want, fmt.Sprintf("r4 %v %x", from, wire.Encode(wire.RBEcho{Source: src, Body: []byte("m")})))
		}
	}
	var got []string
	for _, line := range rec.heard {
		if line[:3] == "r4 " {
			got = append(got, line)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("round-3 echoes that survived the quota:\n%v\nwant\n%v", got, want)
	}
}
