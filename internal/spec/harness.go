package spec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Role is what a correct node of a run is given. The first three nodes
// are Algorithm 1's sources, of two bodies.
type Role struct {
	ID     ids.ID
	Body   []byte  // nil at a node that is not a source
	Input  float64 // Algorithm 4's input, Algorithm 2's opinion, the vector's value, Algorithm 6's event
	Source ids.ID  // the first chatterer: terminating reliable broadcast's source
	// Founders are Algorithm 6's members in round 1: every node but the
	// last, and the chatterers that speak from round 1.
	Founders []ids.ID
}

// Vote is the node's input to Algorithm 3, 0 or 1: the parity of Input's
// integer part.
func (r Role) Vote() wire.Value { return wire.V(float64(int(r.Input) % 2)) }

// Pairs are the node's inputs to Algorithm 5: its Vote on instance 1,
// which every node holds, and on instance 2, which only sources hold.
func (r Role) Pairs() []Pair {
	if r.Body == nil {
		return []Pair{{1, r.Vote()}}
	}
	return []Pair{{1, r.Vote()}, {2, r.Vote()}}
}

// Side is the implementation side of a differential run: how its
// correct nodes are built, and what each ended with, compared as printed
// by %v with the Outcome of the spec's node.
type Side struct {
	New     func(Role) simnet.Process
	Outcome func(simnet.Process) any
}

// Family is one row of the scenario table: Nodes correct nodes,
// Chatterers scripted Byzantine nodes sending seeded parts of Pool every
// round — the last of them silent until round 5, a sender the census
// meets late — and a silent Tap, run for Rounds rounds.
type Family struct {
	Nodes, Chatterers, Rounds int
	FaultFrom                 int // the first round of the link-fault shapes' plans
	Pool                      func(nodes, byz []ids.ID) []wire.Payload
	Spec                      func(Role) simnet.Process
}

// IteratedRounds is the reductions of the ForApproxIterated row.
const IteratedRounds = 6

// The scenario table.
var (
	// ForRelBcast: chatterers relay a correct source's message as their
	// own, broadcast one of a Byzantine source, and echo real and forged
	// pairs of correct, Byzantine and unknown sources.
	ForRelBcast = Family{Nodes: 6, Chatterers: 6, Rounds: 10, FaultFrom: 3,
		Pool: func(nodes, byz []ids.ID) []wire.Payload {
			pool := []wire.Payload{wire.RBMessage{Source: nodes[0], Body: []byte("m1")},
				wire.RBMessage{Source: byz[0], Body: []byte("m1")}}
			for _, src := range []ids.ID{nodes[0], nodes[1], nodes[2], byz[0], 777} {
				for _, body := range []string{"m0", "m1", "forged"} {
					pool = append(pool, wire.RBEcho{Source: src, Body: []byte(body)})
				}
			}
			return pool
		},
		Spec: func(r Role) simnet.Process { return NewRB(r.ID, r.Body) }}

	// ForRenaming: chatterers echo ghosts (also under a foreign instance
	// tag) and spoof terminate(k).
	ForRenaming = Family{Nodes: 7, Chatterers: 5, Rounds: 14, FaultFrom: 3,
		Pool: func(_, byz []ids.ID) []wire.Payload {
			pool := []wire.Payload{wire.IDEcho{Instance: 1, Candidate: 55}}
			for _, ghost := range []ids.ID{11, 22, 33, 44, byz[0]} {
				pool = append(pool, wire.IDEcho{Candidate: ghost})
			}
			for k := uint64(3); k <= 8; k++ {
				pool = append(pool, wire.Terminate{Round: k})
			}
			return pool
		},
		Spec: func(r Role) simnet.Process { return NewRenaming(r.ID) }}

	// ForRotor: chatterers announce themselves, echo ghosts and Byzantine
	// candidates (also under a foreign instance tag), and state two
	// opinions a round, so a Byzantine coordinator equivocates. Eight
	// nodes and four chatterers put n_v at 12, so a count can sit exactly
	// on either threshold.
	ForRotor = Family{Nodes: 8, Chatterers: 4, Rounds: 20, FaultFrom: 3,
		Pool: func(nodes, byz []ids.ID) []wire.Payload {
			return []wire.Payload{wire.Init{},
				wire.IDEcho{Candidate: 11}, wire.Opinion{X: wire.V(-1)}, wire.IDEcho{Candidate: byz[0]},
				wire.IDEcho{Candidate: byz[1]}, wire.Opinion{X: wire.V(-2)}, wire.IDEcho{Instance: 1, Candidate: nodes[0]},
				wire.IDEcho{Candidate: 22}, wire.Opinion{Instance: 1, X: wire.V(-3)}}
		},
		Spec: func(r Role) simnet.Process { return NewRotor(r.ID, wire.V(r.Input)) }}

	ForApprox         = approxRow(1)
	ForApproxIterated = approxRow(IteratedRounds)

	// ForConsensus: nodes input 0 or 1 (Role.Vote); chatterers announce
	// themselves, echo a ghost and one of their own, and send ballots,
	// markers and opinions of both values, also of a foreign instance.
	// Eight nodes and the four chatterers that speak from round 1 put the
	// frozen n_v at 12, so a count can sit exactly on either threshold and
	// the chatterers alone reach n_v/3; the fifth is outside every census.
	ForConsensus = Family{Nodes: 8, Chatterers: 5, Rounds: 32, FaultFrom: 3,
		Pool: func(_, byz []ids.ID) []wire.Payload {
			return append(ballots([]uint64{0, 1}, wire.V(0), wire.V(1)),
				wire.Init{}, wire.IDEcho{Candidate: 11}, wire.IDEcho{Candidate: byz[1]})
		},
		Spec: func(r Role) simnet.Process { return NewConsensus(r.ID, r.Vote()) }}

	// ForTRB: the first chatterer is the source and sends two bodies;
	// every chatterer relays both, echoes a ghost, and sends ballots,
	// markers and opinions of both fingerprints and of ⊥, also of a
	// foreign instance. Sized as ForConsensus; the link-fault shapes
	// start in round 1, the round the source sends in.
	ForTRB = Family{Nodes: 8, Chatterers: 5, Rounds: 32, FaultFrom: 1,
		Pool: func(_, byz []ids.ID) []wire.Payload {
			return append(ballots([]uint64{0, 1}, fingerprint([]byte("m0")), fingerprint([]byte("m1")), wire.Bot()),
				wire.Init{}, wire.IDEcho{Candidate: 11},
				wire.RBMessage{Source: byz[0], Body: []byte("m0")}, wire.RBMessage{Source: byz[0], Body: []byte("m1")})
		},
		Spec: func(r Role) simnet.Process { return NewTRB(r.ID, r.Source) }}

	// ForParallelConsensus: nodes hold instance 1, sources instance 2
	// too (Role.Pairs); chatterers send ballots, markers and opinions of
	// both values on those and on instance 3, which no node holds, and an
	// opinion on instance 4 only. Sized as ForConsensus.
	ForParallelConsensus = Family{Nodes: 8, Chatterers: 5, Rounds: 32, FaultFrom: 3,
		Pool: func(_, byz []ids.ID) []wire.Payload {
			return append(ballots([]uint64{3, 1, 2}, wire.V(0), wire.V(1)),
				wire.Init{}, wire.IDEcho{Candidate: 11}, wire.IDEcho{Candidate: byz[1]}, wire.Opinion{Instance: 4, X: wire.V(1)})
		},
		Spec: func(r Role) simnet.Process { return NewParallelConsensus(r.ID, r.Pairs()) }}

	// ForVector: chatterers contribute two values, NaN and malformed
	// events, echo a ghost, and send ballots, markers and opinions of two
	// values on a node's slot, a chatterer's and the ghost's. Sized as
	// ForConsensus; the link-fault shapes start in round 1, the round the
	// contributions go out in.
	ForVector = Family{Nodes: 8, Chatterers: 5, Rounds: 32, FaultFrom: 1,
		Pool: func(nodes, byz []ids.ID) []wire.Payload {
			return append(ballots([]uint64{uint64(byz[0]), uint64(nodes[0]), 11}, wire.V(1), wire.V(2)),
				wire.Init{}, wire.IDEcho{Candidate: 11}, contribution(1), contribution(2), contribution(math.NaN()),
				wire.Event{Round: 1, Body: contribution(3).Body}, wire.Event{Body: []byte{1, 2, 3}})
		},
		Spec: func(r Role) simnet.Process { return NewVector(r.ID, r.Input) }}

	// ForOrdering: the founders are every node but the last, the joiner,
	// and the four chatterers that speak from round 1; nodes submit their
	// Input. Chatterers say present and absent, send acks, events of early
	// rounds (also NaN and of a bad length), ballots, markers and opinions
	// under early rounds' tags, and echoes under their rotor tags; the fifth,
	// silent until round 5 and outside every founder's S, joins by its
	// present and sends events. 45 rounds let executions finalize.
	ForOrdering = Family{Nodes: 8, Chatterers: 5, Rounds: 45, FaultFrom: 1,
		Pool: func(nodes, byz []ids.ID) []wire.Payload {
			pool := []wire.Payload{wire.Present{}, wire.Absent{}, wire.Ack{Round: 1}, wire.Ack{Round: JoinRound}, wire.Ack{Round: 99},
				wire.Event{Round: 4, Body: contribution(math.NaN()).Body}, wire.Event{Round: 4, Body: []byte{1, 2, 3}},
				wire.IDEcho{Instance: tag(4, 0), Candidate: byz[0]}, wire.IDEcho{Instance: tag(5, 0), Candidate: 11}}
			for _, r := range []uint64{1, 2, 3, 5, 6} {
				pool = append(pool, wire.Event{Round: r, Body: contribution(float64(r)).Body})
			}
			return append(pool, ballots([]uint64{tag(3, byz[0]), tag(5, nodes[1]), tag(5, 11)}, wire.V(0), wire.V(1))...)
		},
		Spec: func(r Role) simnet.Process {
			if slices.Contains(r.Founders, r.ID) {
				return r.Churned(NewOrdering(r.ID, r.Founders))
			}
			return r.Churned(NewOrdering(r.ID, nil))
		}}
)

// ballots is, for each instance, its input, prefer, strongprefer and
// opinion of each value, and its two markers.
func ballots(instances []uint64, values ...wire.Value) []wire.Payload {
	var pool []wire.Payload
	for _, id := range instances {
		for _, x := range values {
			pool = append(pool, wire.Input{Instance: id, X: x}, wire.Prefer{Instance: id, X: x},
				wire.StrongPrefer{Instance: id, X: x}, wire.Opinion{Instance: id, X: x})
		}
		pool = append(pool, wire.NoPreference{Instance: id}, wire.NoStrongPreference{Instance: id})
	}
	return pool
}

// approxRow is Algorithm 4 reducing rounds times: chatterers send several
// values each, NaN, ⊥ and a foreign instance's input. The link-fault
// shapes start in round 1, the round the single shot sends in.
func approxRow(rounds int) Family {
	in := func(x float64) wire.Payload { return wire.Input{X: wire.V(x)} }
	return Family{Nodes: 7, Chatterers: 7, Rounds: rounds + 2, FaultFrom: 1,
		Pool: func(_, _ []ids.ID) []wire.Payload {
			return []wire.Payload{in(-5), in(0.5), in(math.NaN()), in(100), wire.Input{X: wire.Bot()},
				in(2), wire.Input{Instance: 3, X: wire.V(-50)}}
		},
		Spec: func(r Role) simnet.Process { return NewApprox(r.ID, r.Input, rounds) }}
}

// Test runs the family's scenarios as parallel subtests of t named
// "<shape>/quota=<q>/seed=<s>": every way a round reaches a reader —
// "block" (the chatterers only broadcast: their messages arrive in the
// shared block), "block+unicasts" (Byzantine unicasts beside the block),
// "linkfault" (a live link rule that names nobody: everything private),
// "drop=node" (a rule names one chatterer: its broadcasts arrive
// privately, beside the block) and "partition" (in the round after
// FaultFrom the chatterers are cut off, in a group of their own: the
// nodes read their group's block) — without a send quota and with one of 3 (fewer than a
// round's echoes), seeds 1 to 8. Each runs
// impl's nodes and the spec's on two networks and fails at the first
// correct node whose queued sends (read with env.Sent right after Step:
// the whole queue, round by round, in order) or whose outcome differ, or
// when the run did not take its shape; a correct node of either side
// that keeps memory its round lent it (retain.go) fails it too. check,
// if not nil, then reads the spec's nodes.
func (f Family) Test(t *testing.T, impl Side, check func(t *testing.T, spec []simnet.Process)) {
	for _, shape := range []string{"block", "block+unicasts", "linkfault", "drop=node", "partition"} {
		for _, quota := range []int{0, 3} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/quota=%d/seed=%d", shape, quota, seed), func(t *testing.T) {
					t.Parallel()
					got, want := f.run(t, shape, quota, seed, impl.New), f.run(t, shape, quota, seed, f.Spec)
					var nodes []simnet.Process
					shared, direct := 0, 0
					for i, r := range want {
						if !slices.Equal(got[i].sends, r.sends) {
							t.Fatalf("node %d queued\n%v\nspec\n%v", i, got[i].sends, r.sends)
						}
						g, w := fmt.Sprint(impl.Outcome(got[i].Process)), fmt.Sprint(r.Process.(interface{ Outcome() any }).Outcome())
						if g != w {
							t.Fatalf("node %d ended with %s, spec %s", i, g, w)
						}
						nodes, shared, direct = append(nodes, r.Process), shared+r.shared, direct+r.direct
					}
					switch {
					case shape == "block" && direct != 0:
						t.Fatalf("%d private deliveries of chatterers' messages in an all-broadcast run", direct)
					case shape != "block" && shape != "linkfault" && (direct == 0 || shared == 0):
						t.Fatalf("shared=%d private=%d: want both", shared, direct)
					case shape == "linkfault" && direct == 0:
						t.Fatal("the link rule delivered nothing privately")
					}
					if check != nil {
						check(t, nodes)
					}
				})
			}
		}
	}
}

// Somewhere returns a check for Family.Test that fails t, once all its
// runs are over, unless shows held for the spec's nodes of some run.
func Somewhere(t *testing.T, what string, shows func(spec []simnet.Process) bool) func(*testing.T, []simnet.Process) {
	var seen atomic.Bool
	t.Cleanup(func() {
		if !seen.Load() {
			t.Errorf("degenerate table: no run %s", what)
		}
	})
	return func(_ *testing.T, nodes []simnet.Process) {
		if shows(nodes) {
			seen.Store(true)
		}
	}
}

// run runs one scenario with the correct nodes that mk builds.
func (f Family) run(t *testing.T, shape string, quota int, seed int64, mk func(Role) simnet.Process) []*recorder {
	rng := rand.New(rand.NewSource(seed))
	all := ids.Sparse(rng, f.Nodes+f.Chatterers+1)
	nodes, byz := all[:f.Nodes], all[f.Nodes:len(all)-1]
	cfg := simnet.Config{SendQuota: quota}
	switch shape {
	case "linkfault":
		cfg.FaultPlan = &simnet.FaultPlan{Seed: seed, Events: []simnet.FaultEvent{
			{Round: f.FaultFrom, Kind: simnet.FaultDrop, Rate: 0.1},
		}}
	case "drop=node":
		cfg.FaultPlan = &simnet.FaultPlan{Seed: seed, Events: []simnet.FaultEvent{
			{Round: f.FaultFrom, Kind: simnet.FaultDrop, Node: uint64(byz[0]), Rate: 0.5},
		}}
	case "partition":
		raw := func(in []ids.ID) []uint64 {
			out := make([]uint64, len(in))
			for i, id := range in {
				out[i] = uint64(id)
			}
			return out
		}
		cfg.FaultPlan = &simnet.FaultPlan{Seed: seed, Events: []simnet.FaultEvent{
			{Round: f.FaultFrom + 1, Kind: simnet.FaultPartition, Groups: [][]uint64{raw(byz), raw(nodes)}},
			{Round: f.FaultFrom + 2, Kind: simnet.FaultHeal},
		}}
	}
	net := simnet.New(cfg)
	defer net.Close()
	founders := slices.Concat(nodes[:len(nodes)-1], byz[:len(byz)-1])
	var recs []*recorder
	for i, id := range nodes {
		role := Role{ID: id, Input: float64(rng.Intn(200)) / 4, Source: byz[0], Founders: founders}
		if i < 3 {
			role.Body = []byte(fmt.Sprintf("m%d", i%2))
		}
		recs = append(recs, &recorder{checked: checked{Process: mk(role), t: t}, chatterers: byz})
		must(t, net.Add(recs[i]))
	}
	pool := f.Pool(nodes, byz)
	for i, id := range byz {
		c := &chatter{node: node{id: id}, rng: rand.New(rand.NewSource(seed*100 + int64(i))), peers: nodes,
			pool: pool, quota: quota, unicast: shape != "block", from: 1}
		if i == len(byz)-1 {
			c.from = 5
		}
		must(t, net.AddByzantine(c))
	}
	must(t, net.AddByzantine(NewTap(all[len(all)-1])))
	for round := 1; round <= f.Rounds; round++ {
		must(t, net.RunRound())
	}
	return recs
}

// Shapes returns msgs as the three inboxes a round can hand a reader:
// all in the private segment, in the given order (a link-fault round),
// all in the shared block (an all-broadcast round), and every other
// message in each.
func Shapes(msgs []simnet.Received) []simnet.Inbox {
	var block, private []simnet.Received
	for i, m := range msgs {
		if i%2 == 0 {
			block = append(block, m)
		} else {
			private = append(private, m)
		}
	}
	return []simnet.Inbox{simnet.InboxOf(msgs...), simnet.InboxOfRound(msgs, nil), simnet.InboxOfRound(block, private)}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// recorder is a correct node that notes how the chatterers' messages
// arrived and every send it queued, and makes the retention check
// (retain.go) around its Steps.
type recorder struct {
	checked
	chatterers     []ids.ID
	sends          []string // "r<round> <encoding>"
	shared, direct int      // chatterers' messages read from the shared block, from the private segment
}

func (r *recorder) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		if slices.Contains(r.chatterers, m.From) {
			r.shared++
		}
	}
	for _, m := range env.Inbox.Direct() {
		if slices.Contains(r.chatterers, m.From) {
			r.shared, r.direct = r.shared-1, r.direct+1
		}
	}
	r.checked.Step(env)
	for _, p := range env.Sent() {
		r.sends = append(r.sends, fmt.Sprintf("r%d %x", env.Round, wire.Encode(p)))
	}
}

// chatter is a scripted Byzantine node: from its first active round on it
// sends a seeded random part of pool every round — broadcast, unicast to
// a few peers, or both at once (the engine delivers the pair once) — and
// never reads its inbox, so it behaves the same on both sides.
// Under a send quota the chatterers all draw from the same stretch of
// the pool, which moves round by round, so that what gets through is
// still enough senders per payload to cross thresholds.
type chatter struct {
	node
	rng     *rand.Rand
	peers   []ids.ID
	pool    []wire.Payload
	quota   int
	unicast bool
	from    int
}

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

// Tap is a silent Byzantine node that keeps everything delivered to it.
type Tap struct {
	node
	heard map[int][]simnet.Received // by round
}

// NewTap returns a tap with identifier id.
func NewTap(id ids.ID) *Tap { return &Tap{node: node{id: id}, heard: map[int][]simnet.Received{}} }

// Step implements simnet.Process.
func (t *Tap) Step(env *simnet.RoundEnv) {
	t.heard[env.Round] = slices.AppendSeq(t.heard[env.Round], env.Inbox.All())
}

// Heard returns, sorted, "<sender> <encoding>" of every message delivered
// to the tap in round from a node of from, or from anyone if from is nil.
func (t *Tap) Heard(round int, from []ids.ID) []string {
	var out []string
	for _, m := range t.heard[round] {
		if from == nil || slices.Contains(from, m.From) {
			out = append(out, fmt.Sprintf("%v %x", m.From, wire.Encode(m.Payload)))
		}
	}
	slices.Sort(out)
	return out
}

// Fleet is a seeded network for a family's own tests: its correct nodes
// and its Byzantine ones, their identifiers drawn by IDs, the correct
// first.
type Fleet[N simnet.Process] struct {
	t     testing.TB
	net   *simnet.Network
	IDs   []ids.ID // every node's, in draw order
	nodes []N      // the correct nodes, in draw order
}

// Byzantine builds a fleet's Byzantine nodes from their identifiers and
// the run's directory.
type Byzantine func(byz []ids.ID, dir *adversary.Directory) []simnet.Process

// Each is the Byzantine factory that builds every Byzantine node with mk.
func Each(mk func(id ids.ID, dir *adversary.Directory) simnet.Process) Byzantine {
	return func(byz []ids.ID, dir *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byz))
		for i, id := range byz {
			out[i] = mk(id, dir)
		}
		return out
	}
}

// Silent is the Byzantine factory of silent nodes.
var Silent = Each(func(id ids.ID, _ *adversary.Directory) simnet.Process { return adversary.NewSilent(id) })

// IDs is the identifiers of a fleet of n nodes drawn from seed.
func IDs(seed int64, n int) []ids.ID { return ids.Sparse(rand.New(rand.NewSource(seed)), n) }

// NewFleet builds, on a network with cfg that t closes when it ends, g
// correct nodes — node i is mk(i, id) — and f Byzantine ones built by
// byz (nil: none), their identifiers drawn from seed.
func NewFleet[N simnet.Process](t testing.TB, seed int64, g, f int, cfg simnet.Config, mk func(i int, id ids.ID) N, byz Byzantine) *Fleet[N] {
	t.Helper()
	fl := &Fleet[N]{t: t, net: simnet.New(cfg), IDs: IDs(seed, g+f)}
	t.Cleanup(fl.net.Close)
	for i, id := range fl.IDs[:g] {
		fl.nodes = append(fl.nodes, mk(i, id))
		must(t, fl.net.Add(fl.nodes[i]))
	}
	if byz != nil {
		for _, p := range byz(fl.IDs[g:], adversary.NewDirectory(fl.IDs, fl.IDs[g:])) {
			must(t, fl.net.AddByzantine(p))
		}
	}
	return fl
}

// Run runs the fleet until every correct node is done and returns the
// correct nodes and the rounds it took.
func (fl *Fleet[N]) Run() ([]N, int) {
	fl.t.Helper()
	rounds, err := fl.net.Run(simnet.AllDone(fl.IDs[:len(fl.nodes)]))
	if err != nil {
		fl.t.Fatalf("the run did not end: %v", err)
	}
	return fl.nodes, rounds
}

// Add adds p to the fleet's network as a correct node that joins between
// rounds; the fleet's runs do not wait for it.
func (fl *Fleet[N]) Add(p simnet.Process) {
	fl.t.Helper()
	must(fl.t, fl.net.Add(p))
}

// RunFor runs the fleet for rounds rounds and returns the correct nodes.
func (fl *Fleet[N]) RunFor(rounds int) []N {
	fl.t.Helper()
	for range rounds {
		must(fl.t, fl.net.RunRound())
	}
	return fl.nodes
}
