package simnet_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/allocgate"
	"uba/internal/census"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/trace"
	"uba/internal/wire"
)

// queuer queues k broadcasts and, from round 2 on, k unicasts to its
// peer every round: the same payloads each round, passed straight to
// Send, the way protocol code sends.
type queuer struct {
	id, peer ids.ID
	k        int
	heard    int // the last inbox's length
}

func (q *queuer) ID() ids.ID { return q.id }
func (q *queuer) Done() bool { return false }

func (q *queuer) Step(env *simnet.RoundEnv) {
	q.heard = env.Inbox.Len()
	for i := 0; i < q.k; i++ {
		env.Broadcast(wire.IDEcho{Instance: uint64(i), Candidate: q.id})
	}
	if env.Round > 1 { // round 1 made every node a contact of every other
		for i := 0; i < q.k; i++ {
			env.Send(q.peer, wire.Input{Instance: uint64(i), X: wire.V(1)})
		}
	}
}

// backwards broadcasts IDEcho candidates 1, 256 and 65536 every round,
// in that order. Their little-endian encodings sort the other way, so
// every step merge meets the round's encodings out of byte order and
// the rank pass has to reorder them.
type backwards struct {
	id    ids.ID
	heard []ids.ID // the candidates of the last inbox's Said, in its order
}

func (b *backwards) ID() ids.ID { return b.id }
func (b *backwards) Done() bool { return false }

func (b *backwards) Step(env *simnet.RoundEnv) {
	b.heard = b.heard[:0]
	for _, g := range env.Inbox.Said() {
		b.heard = append(b.heard, g.Payload.(wire.IDEcho).Candidate)
	}
	for _, c := range [...]ids.ID{1, 256, 65536} {
		env.Broadcast(wire.IDEcho{Candidate: c})
	}
}

// echoer runs the rotor's echo path every round: it observes the
// round's senders into a live census and lays a rank table over it (one
// merge each), broadcasts init, echoes every init it received
// (EchoInits), tallies the echoes against a frozen census and folds them
// (NoteInbox, LoopRound), and reads the coordinator's opinions. nv = 2n
// puts every candidate's n echoes above n_v/3 and below 2n_v/3, so each
// fold echoes every candidate but the seeded coordinator again, and none
// is ever admitted: the round repeats.
type echoer struct {
	id       ids.ID
	core     *rotor.Core
	members  census.Census
	ranks    census.Ranks
	live     census.Census // re-observes every round's senders
	liveRank census.Ranks  // laid over live every round
	nv       int
	opinions int // opinions read from the last inbox
	heard    int // the last inbox's length
}

func (e *echoer) ID() ids.ID { return e.id }
func (e *echoer) Done() bool { return false }

func (e *echoer) Step(env *simnet.RoundEnv) {
	e.heard = env.Inbox.Len()
	rotor.ObserveSenders(&e.live, &env.Inbox)
	e.liveRank.Reset(env.Inbox.Broadcasters(), e.live.Members())
	view := rotor.Count(&env.Inbox, e.members.Members(), &e.ranks)
	e.core.NoteInbox(&env.Inbox, view)
	e.opinions = 0
	e.core.Opinions(&env.Inbox, view, func(wire.Opinion) { e.opinions++ })
	e.core.BroadcastInit(env)
	e.core.EchoInits(&env.Inbox, env)
	if sel := e.core.LoopRound(e.nv, env); sel.Coordinator == e.id {
		// Two opinions, so a reader that gets them one by one (a
		// link-fault round) orders them by encoding.
		env.Broadcast(wire.Opinion{Instance: 1, X: wire.V(1)})
		env.Broadcast(wire.Opinion{Instance: 0, X: wire.V(0)})
	}
}

// whisper is a Byzantine node that broadcasts nothing and, in round 1,
// unicasts once to one node, which hears it in round 2.
type whisper struct{ id, to ids.ID }

func (w *whisper) ID() ids.ID { return w.id }
func (w *whisper) Done() bool { return false }

func (w *whisper) Step(env *simnet.RoundEnv) {
	if env.Round == 1 {
		env.Send(w.to, wire.Input{X: wire.V(1)})
	}
}

// TestSendPathZeroAlloc is RoundEnv.Send's allocation contract: a send
// costs no heap memory. After warm-up rounds, a whole RunRound — every
// Step, the step merge and its intern table and rank pass, the route
// pass, delivery — allocates nothing, at n = 32:
//
//   - queue: every node queues k broadcasts and k unicasts;
//
//   - rotor: every node runs the rotor echo path — n echoes from
//     EchoInits and n-1 from a LoopRound fold — and reads two opinions
//     of the coordinator. It also re-observes the round's senders into a
//     live census (rotor.ObserveSenders) and lays a rank table over it,
//     so a census merge that allocated once it holds everyone shows.
//     With links=live a drop rule on the links of one node (neither the
//     coordinator nor the node the assertions read) drops about half of
//     them every round, so the fault rolls run every round. Only that
//     node's links go through Direct: its broadcasts reach the others
//     privately, beside the shared block they read as on a healthy
//     round, and it reads everything privately, so for it
//     Core.Opinions orders the opinions by encoding itself and its
//     census is a set of its own. The drops vary each round's shape, so buffers
//     sized by it (the unicast arena, a node's census window) reach
//     their high-water mark only after dozens of rounds; this row warms
//     for 100 (the last growth is before round 70, and the 2,000 rounds
//     after it allocate nothing). With census=diverged the links are
//     healthy and a Byzantine node unicasts once, in round 1, to one
//     node, whose census then differs from the one set the others
//     share: every round merges the broadcasters into both, each found
//     by its own content.
//
//   - queue/transcript=full: the queue fixture with a trace.EventLog
//     attached that is already at capacity, so every round is
//     transcribed and every event is counted as dropped. A log that
//     still grows allocates when its array does, so only a full one is
//     held to 0.
//
//   - backwards: every node queues three encodings in the reverse of
//     their byte order, so the rank pass sorts every round.
//
// A send that boxed its payload, a per-send string, a per-delivery
// decode, a node buffer that regrew, or an opinion comparison that
// encoded on the heap would each read as at least one allocation per
// round; the gate sums the measured rounds' allocations, so one made in
// only some rounds shows too.
func TestSendPathZeroAlloc(t *testing.T) {
	const n = 32
	nodes := ids.Sparse(rand.New(rand.NewSource(1)), n)
	for _, k := range []int{1, 16} {
		t.Run(fmt.Sprintf("queue/k=%d", k), func(t *testing.T) {
			net := simnet.New(simnet.Config{})
			defer net.Close()
			qs := make([]*queuer, n)
			for i, id := range nodes {
				qs[i] = &queuer{id: id, peer: nodes[(i+1)%n], k: k}
				if err := net.Add(qs[i]); err != nil {
					t.Fatal(err)
				}
			}
			checkZeroAllocRounds(t, net, 4)
			if want := n*k + k; qs[0].heard != want {
				t.Fatalf("a node's inbox holds %d messages, want n·k + k = %d", qs[0].heard, want)
			}
		})
	}
	t.Run("queue/transcript=full", func(t *testing.T) {
		log := trace.NewEventLog(1)
		net := simnet.New(simnet.Config{EventLog: log})
		defer net.Close()
		for i, id := range nodes {
			if err := net.Add(&queuer{id: id, peer: nodes[(i+1)%n], k: 1}); err != nil {
				t.Fatal(err)
			}
		}
		checkZeroAllocRounds(t, net, 4)
		dropped := log.Dropped()
		checkZeroAllocRounds(t, net, 4)
		// 4 + 21 rounds of n² + n deliveries, every one past capacity.
		if got, want := log.Dropped()-dropped, 25*(n*n+n); len(log.Events()) != 1 || got != want {
			t.Fatalf("the full log holds %d events and dropped %d more, want 1 and %d", len(log.Events()), got, want)
		}
	})
	t.Run("backwards", func(t *testing.T) {
		net := simnet.New(simnet.Config{})
		defer net.Close()
		bs := make([]*backwards, n)
		for i, id := range nodes {
			bs[i] = &backwards{id: id, heard: make([]ids.ID, 0, 3)}
			if err := net.Add(bs[i]); err != nil {
				t.Fatal(err)
			}
		}
		checkZeroAllocRounds(t, net, 4)
		if got, want := bs[0].heard, []ids.ID{65536, 256, 1}; !slices.Equal(got, want) {
			t.Fatalf("a node read the candidates in the order %v, want the byte order %v", got, want)
		}
	})
	const (
		dropped = 2 // the node whose links the live drop rule names
		owner   = 3 // the node whose census the census=diverged whisper sets apart
	)
	for _, row := range []string{"links=healthy", "links=live", "census=diverged"} {
		t.Run("rotor/"+row, func(t *testing.T) {
			live := row == "links=live"
			cfg := simnet.Config{}
			if live {
				cfg.FaultPlan = &simnet.FaultPlan{Seed: 1, Events: []simnet.FaultEvent{
					{Round: 1, Kind: simnet.FaultDrop, Node: uint64(nodes[dropped]), Rate: 0.5},
				}}
			}
			net := simnet.New(cfg)
			defer net.Close()
			members := census.Of(ids.NewSet(nodes...))
			es := make([]*echoer, n)
			for i, id := range nodes {
				core := rotor.NewCore(0)
				core.SetCycling(true)
				core.SeedCandidates(ids.NewSet(nodes[0]))
				es[i] = &echoer{id: id, core: core, members: members, nv: 2 * n}
				if err := net.Add(es[i]); err != nil {
					t.Fatal(err)
				}
			}
			if row == "census=diverged" {
				w := &whisper{id: slices.Max(nodes) + 1, to: nodes[owner]}
				if err := net.AddByzantine(w); err != nil {
					t.Fatal(err)
				}
			}
			warm := 4
			if live {
				warm = 100
			}
			checkZeroAllocRounds(t, net, warm)
			// The nodes no rule names read the shared block, so they share
			// one census; the named node reads everything through Direct,
			// where it merges its senders alone.
			if got, shared := es[1].live.N(), es[1].live.Members() == es[0].live.Members(); got != n || !shared {
				t.Fatalf("a node's live census holds %d senders (shared %v), want n = %d, shared", got, shared, n)
			}
			if own := es[dropped].live.Members(); live && (own == es[0].live.Members() || own.Len() != n) {
				t.Fatalf("the named node's census holds %d senders, want a set of its own with n = %d", own.Len(), n)
			}
			if own := es[owner].live.Members(); row == "census=diverged" && (own == es[1].live.Members() || own.Len() != n+1) {
				t.Fatalf("the whispered-to node's census holds %d senders, want a set of its own with n + 1 = %d", own.Len(), n+1)
			}
			if es[1].opinions != 2 {
				t.Fatalf("a node read %d of the coordinator's opinions, want 2", es[1].opinions)
			}
			if got := es[1].core.Candidates().Len(); got != 1 {
				t.Fatalf("C_v grew to %d: the fixture is meant to echo candidates, not admit them", got)
			}
			// Every link of the named node is rolled and about half are
			// dropped; the other nodes lose only what it sends them.
			if lost := es[1].heard - es[dropped].heard; live != (lost > 0) {
				t.Fatalf("the named node heard %d messages and another %d, with %s", es[dropped].heard, es[1].heard, row)
			}
		})
	}
}

// checkZeroAllocRounds runs warm rounds of net and fails unless the
// rounds after them allocate nothing.
func checkZeroAllocRounds(t *testing.T, net *simnet.Network, warm int) {
	t.Helper()
	round := func() {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for range warm {
		round()
	}
	if allocs := allocgate.Count(20, round); allocs != 0 {
		t.Fatalf("20 warm rounds allocated %d times, want 0", allocs)
	}
}
