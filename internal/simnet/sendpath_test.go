package simnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"uba/internal/census"
	"uba/internal/core/rotor"
	"uba/internal/ids"
	"uba/internal/simnet"
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

// echoer runs the rotor's echo path every round: it broadcasts init,
// echoes every init it received (EchoInits), tallies the echoes and
// folds them (NoteInbox, LoopRound), and reads the coordinator's
// opinions. nv = 2n puts every candidate's n echoes above n_v/3 and
// below 2n_v/3, so each fold echoes every candidate but the seeded
// coordinator again, and none is ever admitted: the round repeats.
type echoer struct {
	id       ids.ID
	core     *rotor.Core
	members  census.Frozen
	ranks    census.Ranks
	nv       int
	opinions int // opinions read from the last inbox
}

func (e *echoer) ID() ids.ID { return e.id }
func (e *echoer) Done() bool { return false }

func (e *echoer) Step(env *simnet.RoundEnv) {
	e.ranks.Reset(env.Inbox.Broadcasters(), &e.members)
	e.core.NoteInbox(env.Inbox, &e.ranks)
	e.opinions = 0
	e.core.Opinions(env.Inbox, &e.ranks, func(wire.Opinion) { e.opinions++ })
	e.core.BroadcastInit(env)
	e.core.EchoInits(env.Inbox, env)
	if sel := e.core.LoopRound(e.nv, env); sel.Coordinator == e.id {
		// Two opinions, so a reader that gets them one by one (a
		// link-fault round) orders them by encoding.
		env.Broadcast(wire.Opinion{Instance: 1, X: wire.V(1)})
		env.Broadcast(wire.Opinion{Instance: 0, X: wire.V(0)})
	}
}

// TestSendPathZeroAlloc is the runtime half of RoundEnv.Send's
// //lint:noalloc: a send costs no heap memory. After warm-up rounds, a
// whole RunRound — every Step, the step merge into the round's byte
// arena, the route pass and its intern table, delivery — allocates
// nothing, at n = 32:
//
//   - queue: every node queues k broadcasts and k unicasts;
//   - rotor: every node runs the rotor echo path — n echoes from
//     EchoInits and n-1 from a LoopRound fold — and reads two opinions
//     of the coordinator. With links=live a drop rule that matches no
//     link is live, so every broadcast is delivered through Direct and
//     Core.Opinions orders the opinions by encoding itself.
//
// A send that boxed its payload, a per-send string, a per-delivery
// decode, a node buffer that regrew, or an opinion comparison that
// encoded on the heap would each read as at least one allocation per
// round.
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
			checkZeroAllocRounds(t, net)
			if want := n*k + k; qs[0].heard != want {
				t.Fatalf("a node's inbox holds %d messages, want n·k + k = %d", qs[0].heard, want)
			}
		})
	}
	for _, links := range []string{"healthy", "live"} {
		t.Run("rotor/links="+links, func(t *testing.T) {
			cfg := simnet.Config{}
			if links == "live" {
				cfg.FaultPlan = &simnet.FaultPlan{Seed: 1, Events: []simnet.FaultEvent{
					{Round: 1, Kind: simnet.FaultDrop, Node: 1, Rate: 0.5}, // no node has id 1
				}}
			}
			net := simnet.New(cfg)
			defer net.Close()
			members := census.FrozenOf(ids.NewSet(nodes...))
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
			checkZeroAllocRounds(t, net)
			if es[1].opinions != 2 {
				t.Fatalf("a node read %d of the coordinator's opinions, want 2", es[1].opinions)
			}
			if got := es[1].core.Candidates().Len(); got != 1 {
				t.Fatalf("C_v grew to %d: the fixture is meant to echo candidates, not admit them", got)
			}
		})
	}
}

// checkZeroAllocRounds warms net up and fails unless a round then
// allocates nothing.
func checkZeroAllocRounds(t *testing.T, net *simnet.Network) {
	t.Helper()
	round := func() {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("a warm round allocates %.2f times, want 0", avg)
	}
}
