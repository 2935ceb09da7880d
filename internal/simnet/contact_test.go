package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/ids"
	"uba/internal/wire"
)

// This file tests the contact rule's state — lastBcast, since and heard,
// read through Network.knows — against the representation it replaced:
// per receiver, the set of every sender that has delivered a message to
// it, filled from every delivered inbox.

// refContacts is that reference set, per receiver.
type refContacts map[ids.ID]map[ids.ID]bool

// note adds the senders of every live receiver's next-round inbox: what
// the round just routed.
func (ref refContacts) note(n *Network) {
	for _, st := range n.live {
		for m := range n.inboxOf(st).All() {
			ref[st.id][m.From] = true
		}
	}
}

// check compares the engine's predicate with the reference for every
// (receiver, id) pair. A terminated receiver is skipped: it is never
// stepped again, so its state is not kept up to date.
func (ref refContacts) check(t *testing.T, n *Network, universe []ids.ID) {
	t.Helper()
	for _, st := range n.live {
		if st.proc.Done() {
			continue
		}
		for _, x := range universe {
			if got, want := n.knows(st, x), ref[st.id][x]; got != want {
				t.Fatalf("round %d: knows(%v, %v) = %v, the per-delivery set says %v (crashed=%v)",
					n.round, st.id, x, got, want, st.crashed)
			}
		}
	}
}

// contactProc is a correct process that keeps its own record of who has
// messaged it and each round broadcasts, unicasts to one of those, does
// both, or stays silent. It may panic in one round and terminate after
// another.
type contactProc struct {
	id      ids.ID
	rng     *rand.Rand
	heard   []ids.ID
	panicAt int
	doneAt  int
	round   int
}

func (p *contactProc) ID() ids.ID { return p.id }
func (p *contactProc) Done() bool { return p.doneAt > 0 && p.round >= p.doneAt }

func (p *contactProc) Step(env *RoundEnv) {
	p.round = env.Round
	for m := range env.Inbox.All() {
		if !slices.Contains(p.heard, m.From) {
			p.heard = append(p.heard, m.From)
		}
	}
	if env.Round == p.panicAt {
		panic("contact test crash")
	}
	msg := wire.Event{Round: uint64(env.Round), Body: []byte{byte(p.rng.Intn(3))}}
	act := p.rng.Intn(4)
	if act == 0 || act == 2 {
		env.Broadcast(msg)
	}
	if (act == 1 || act == 2) && len(p.heard) > 0 {
		env.Send(p.heard[p.rng.Intn(len(p.heard))], msg)
	}
}

// strangerProc is a Byzantine process that unicasts to ids that never
// messaged it, and sometimes broadcasts.
type strangerProc struct {
	id       ids.ID
	rng      *rand.Rand
	universe []ids.ID
}

func (p *strangerProc) ID() ids.ID { return p.id }
func (p *strangerProc) Done() bool { return false }

func (p *strangerProc) Step(env *RoundEnv) {
	msg := wire.Event{Round: uint64(env.Round), Body: []byte("stranger")}
	if p.rng.Intn(3) == 0 {
		env.Broadcast(msg)
	}
	env.Send(p.universe[p.rng.Intn(len(p.universe))], msg)
}

// contactPlan draws a fault plan over nodes: partitions and heals, drop
// rules, and crashes, most of them recovered a few rounds later.
func contactPlan(rng *rand.Rand, nodes []ids.ID, rounds int) *FaultPlan {
	plan := &FaultPlan{Seed: rng.Int63()}
	for k := 0; k < 14; k++ {
		e := FaultEvent{Round: 1 + rng.Intn(rounds)}
		node := uint64(nodes[rng.Intn(len(nodes))])
		switch rng.Intn(5) {
		case 0:
			groups := make([][]uint64, 2)
			for _, id := range nodes {
				if g := rng.Intn(3); g < 2 { // a third of the nodes sit in no group
					groups[g] = append(groups[g], uint64(id))
				}
			}
			e.Kind, e.Groups = FaultPartition, groups
		case 1:
			e.Kind = FaultHeal
		case 2:
			e.Kind, e.Node, e.Rate = FaultDrop, node, []float64{0, 0.5, 1}[rng.Intn(3)]
		default:
			e.Kind, e.Node = FaultCrash, node
			if rng.Intn(4) > 0 {
				plan.Events = append(plan.Events, FaultEvent{Round: e.Round + 1 + rng.Intn(4), Kind: FaultRecover, Node: node})
			}
		}
		plan.Events = append(plan.Events, e)
	}
	return plan
}

// TestContactStateMatchesPerDeliveryMap drives random broadcast/unicast
// schedules under a random fault plan — partitions, drop rules, plan
// crashes and recoveries — with contained panics, terminating nodes,
// Byzantine strangers, and Add/Remove between rounds (a removed id may
// come back), inline and on three workers. After every round the
// engine's contact predicate must equal the per-delivery set for every
// (receiver, id) pair, and no correct node's unicast to a node it has
// heard from may be refused.
func TestContactStateMatchesPerDeliveryMap(t *testing.T) {
	t.Parallel()
	const rounds = 30
	for seed := int64(1); seed <= 10; seed++ {
		for _, workers := range []int{1, 3} {
			seed, workers := seed, workers
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				universe := ids.Consecutive(10, 14) // 8 founders, 6 joiners
				universe = append(universe, 9999)   // never registered
				founders, joiners := universe[:8], universe[8:14]
				net := New(Config{MaxRounds: rounds + 1, FaultPlan: contactPlan(rng, universe[:14], rounds)})
				net.forceWorkers(workers)
				defer net.Close()
				ref := refContacts{}
				add := func(id ids.ID) {
					ref[id] = map[ids.ID]bool{}
					var err error
					if rng.Intn(6) == 0 {
						err = net.AddByzantine(&strangerProc{id: id, rng: rand.New(rand.NewSource(rng.Int63())), universe: universe})
					} else {
						p := &contactProc{id: id, rng: rand.New(rand.NewSource(rng.Int63()))}
						if rng.Intn(4) == 0 {
							p.panicAt = net.round + 1 + rng.Intn(rounds)
						}
						if rng.Intn(4) == 0 {
							p.doneAt = net.round + 1 + rng.Intn(rounds)
						}
						err = net.Add(p)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range founders {
					add(id)
				}
				var removed []ids.ID
				for round := 1; round <= rounds; round++ {
					if err := net.RunRound(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					ref.note(net)
					ref.check(t, net, universe)
					switch rng.Intn(4) {
					case 0:
						if len(joiners) > 0 {
							add(joiners[0])
							joiners = joiners[1:]
						} else if len(removed) > 0 {
							add(removed[0])
							removed = removed[1:]
						}
					case 1:
						if len(net.order) > 3 {
							id := net.order[rng.Intn(len(net.order))]
							net.Remove(id)
							delete(ref, id)
							removed = append(removed, id)
						}
					}
					ref.check(t, net, universe)
				}
			})
		}
	}
}

// TestContactRuleDirectedCases pins the rule's edges one by one, inline
// and on three workers: a broadcast a partition cut is no contact; a
// contact survives a crash and a recovery, a broadcast sent while the
// node was down is none, and one sent after it is back is one; a removed sender stays a contact, also
// once it rejoins; and a node is its own contact only after it has heard
// itself.
func TestContactRuleDirectedCases(t *testing.T) {
	t.Parallel()
	send := func(to ids.ID) func(*RoundEnv) {
		return func(env *RoundEnv) { env.Send(to, body("direct")) }
	}
	cases := []struct {
		name string
		plan []FaultEvent
		run  func(t *testing.T, net *Network)
	}{
		{"partition-cut broadcast", []FaultEvent{
			{Round: 1, Kind: FaultPartition, Groups: [][]uint64{{10}, {20}}},
		}, func(t *testing.T, net *Network) {
			addAll(t, net, newRecorder(10, hello), newRecorder(20, nil, send(10)))
			mustRounds(t, net, 1)
			if !net.knows(net.state(10), 10) || net.knows(net.state(20), 10) {
				t.Fatal("across the cut the broadcast made a contact, or the sender missed its own copy")
			}
			if err := net.RunRound(); !errors.Is(err, ErrContactRule) {
				t.Fatalf("unicast across the cut: err = %v, want ErrContactRule", err)
			}
		}},
		{"crash and recover", []FaultEvent{
			{Round: 2, Kind: FaultCrash, Node: 20},
			{Round: 4, Kind: FaultRecover, Node: 20},
		}, func(t *testing.T, net *Network) {
			// 20 is stepped in rounds 1, 4 and 5: down in rounds 2 and 3,
			// while 30 broadcasts; 40 broadcasts once it is back.
			addAll(t, net,
				newRecorder(10, hello),
				newRecorder(20, nil, send(10), send(30)),
				newRecorder(30, nil, hello, hello),
				newRecorder(40, nil, nil, nil, hello))
			mustRounds(t, net, 4)
			if !net.knows(net.state(20), 10) || net.knows(net.state(20), 30) || !net.knows(net.state(20), 40) {
				t.Fatal("the crash lost a contact, a broadcast sent while down made one, or one sent after the recovery made none")
			}
			if err := net.RunRound(); !errors.Is(err, ErrContactRule) {
				t.Fatalf("unicast to a node heard only while down: err = %v, want ErrContactRule", err)
			}
		}},
		{"removed sender", nil, func(t *testing.T, net *Network) {
			receiver := newRecorder(20, nil, send(10), send(10))
			addAll(t, net, newRecorder(10, hello), receiver)
			mustRounds(t, net, 1)
			net.Remove(10)
			if !net.knows(net.state(20), 10) {
				t.Fatal("removing the sender lost the contact")
			}
			mustRounds(t, net, 1) // to a removed node: dropped, but legal
			rejoined := newRecorder(10)
			addAll(t, net, rejoined)
			mustRounds(t, net, 2)
			if len(rejoined.received) != 2 || len(rejoined.received[1]) != 1 {
				t.Fatalf("the rejoined sender's inboxes are %+v, want the unicast in its second", rejoined.received)
			}
		}},
		{"self", nil, func(t *testing.T, net *Network) {
			addAll(t, net, newRecorder(10, send(10)))
			if err := net.RunRound(); !errors.Is(err, ErrContactRule) {
				t.Fatalf("unicast to itself before hearing itself: err = %v, want ErrContactRule", err)
			}
		}},
		{"self after hearing itself", nil, func(t *testing.T, net *Network) {
			self := newRecorder(10, hello, send(10))
			addAll(t, net, self)
			mustRounds(t, net, 3)
			if len(self.received[2]) != 1 {
				t.Fatalf("self-unicast not delivered: %+v", self.received)
			}
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			c, workers := c, workers
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				t.Parallel()
				net := New(Config{FaultPlan: &FaultPlan{Events: c.plan}})
				net.forceWorkers(workers)
				defer net.Close()
				c.run(t, net)
			})
		}
	}
}

func addAll(t *testing.T, net *Network, ps ...*recorder) {
	t.Helper()
	for _, p := range ps {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
}
