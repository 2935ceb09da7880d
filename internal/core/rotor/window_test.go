package rotor

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// refCore is the reference the dense echo window and the opinion reader
// are tested against: the same Algorithm 2 round, counting distinct
// senders the obvious way — a set of sender ids per candidate, rebuilt
// every window, every message checked against the accept predicate — and
// finding the coordinator's opinion by walking the inbox message by
// message.
type refCore struct {
	instance uint64

	candidates, selected ids.Set
	echoSenders          map[ids.ID]map[ids.ID]struct{}
	lastSelected         ids.ID
	rounds               int
}

func newRefCore(instance uint64) *refCore {
	return &refCore{instance: instance, echoSenders: make(map[ids.ID]map[ids.ID]struct{})}
}

func (c *refCore) noteInbox(inbox simnet.Inbox, accept func(ids.ID) bool) {
	for m := range inbox.All() {
		if !accept(m.From) {
			continue
		}
		if p, ok := m.Payload.(wire.IDEcho); ok && p.Instance == c.instance {
			if c.echoSenders[p.Candidate] == nil {
				c.echoSenders[p.Candidate] = make(map[ids.ID]struct{})
			}
			c.echoSenders[p.Candidate][m.From] = struct{}{}
		}
	}
}

// opinion is the opinion for instance that the last selected coordinator
// sent in inbox, if it is accepted and sent one: of several, the one with
// the greatest encoding.
func (c *refCore) opinion(inbox simnet.Inbox, instance uint64, accept func(ids.ID) bool) (x wire.Value, ok bool) {
	if c.lastSelected == ids.None || !accept(c.lastSelected) {
		return wire.Value{}, false
	}
	for m := range inbox.All() {
		if p, isOp := m.Payload.(wire.Opinion); isOp && m.From == c.lastSelected && p.Instance == instance {
			if !ok || bytes.Compare(wire.Encode(p), wire.Encode(wire.Opinion{Instance: instance, X: x})) > 0 {
				x, ok = p.X, true
			}
		}
	}
	return x, ok
}

func (c *refCore) loopRound(nv int, emit func(wire.Payload)) Selection {
	r := c.rounds
	c.rounds++
	order := make([]ids.ID, 0, len(c.echoSenders))
	for p := range c.echoSenders {
		order = append(order, p)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, p := range order {
		if c.candidates.Contains(p) {
			continue
		}
		count := len(c.echoSenders[p])
		if census.AtLeastThird(count, nv) {
			emit(wire.IDEcho{Instance: c.instance, Candidate: p})
		}
		if census.AtLeastTwoThirds(count, nv) {
			c.candidates.Add(p)
		}
	}
	c.echoSenders = make(map[ids.ID]map[ids.ID]struct{})

	if c.candidates.Len() == 0 {
		return Selection{}
	}
	p := c.candidates.At(r % c.candidates.Len())
	sel := Selection{Coordinator: p, Terminated: c.selected.Contains(p)}
	c.selected.Add(p)
	c.lastSelected = p
	return sel
}

// Differential property test: over seeded random windows the dense echo
// window and the map-of-maps reference emit the same echoes, build the
// same C_v and make the same selections, and out of every inbox the
// opinion reader and the message-by-message walk take the same opinion
// of the selected coordinator. The inboxes are hostile to every
// shortcut the dense window takes: more than 64 senders (multi-word
// rows), census ranks unrelated to id order (so the rank table is all
// short runs), senders outside the census, echoes and opinions tagged for
// a foreign instance, the same (sender, candidate) echo repeated within an
// inbox and across the several inboxes of one window, senders that state
// two opinions in one inbox, and windows back to back so a reset that
// leaked a mark, a row or a stale position would change the next fold. Inboxes alternate between the two shapes the engine
// delivers: a healthy round (InboxOfRound — a random part of the senders
// broadcast into the shared block and are read payload-major, the rest
// arrive in the private segment) and a link-fault round (InboxOf —
// everything private, in arbitrary order with each sender's messages
// scattered rather than in one run); a healthy round in which nobody
// unicasts is all block. In the growing variant the census
// additionally gains members between inboxes, as the standalone node's
// does, so rows widen mid-window.
func TestEchoWindowMatchesMapReference(t *testing.T) {
	t.Parallel()
	var opinionsHeard atomic.Int64 // over all trials: the reader was not compared on silence only
	t.Cleanup(func() {
		if opinionsHeard.Load() == 0 {
			t.Error("no trial ever heard an opinion from a selected coordinator")
		}
	})
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		for _, growing := range []bool{false, true} {
			growing := growing
			t.Run(fmt.Sprintf("seed=%d/growing=%v", seed, growing), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				const instance = 7
				universe := ids.Sparse(rng, 150+rng.Intn(100))
				pool := ids.Sparse(rng, 12+rng.Intn(30)) // candidate ids, mostly ghosts
				pool = append(pool, universe[:5]...)

				// Census: a random ~80% of the universe, observed in
				// random order so rank order is not id order.
				cen := census.New()
				perm := rng.Perm(len(universe))
				members := perm[:len(perm)*4/5]
				if growing {
					members = members[:10]
				}
				for _, i := range members {
					cen.Observe(universe[i])
				}

				core, ref := NewCore(instance), newRefCore(instance)
				core.SetCycling(true)
				// Per-candidate echo probability, so counts land on both
				// sides of n_v/3 and 2n_v/3.
				weight := make(map[ids.ID]float64, len(pool))
				for _, p := range pool {
					weight[p] = rng.Float64()
				}

				for window := 0; window < 4; window++ {
					for inboxes := 1 + rng.Intn(5); inboxes > 0; inboxes-- {
						var msgs []simnet.Received
						for _, from := range universe {
							if rng.Intn(8) == 0 {
								continue // silent this round
							}
							for _, p := range pool {
								if rng.Float64() > weight[p] {
									continue
								}
								inst := uint64(instance)
								if rng.Intn(10) == 0 {
									inst = 8
								}
								echo := simnet.Received{From: from, Payload: wire.IDEcho{Instance: inst, Candidate: p}}
								msgs = append(msgs, echo)
								if rng.Intn(6) == 0 {
									msgs = append(msgs, echo)
								}
							}
							for k := rng.Intn(4); k < 2; k++ { // half send one opinion, a quarter two
								inst := uint64(instance)
								if rng.Intn(5) == 0 {
									inst = 8
								}
								msgs = append(msgs, simnet.Received{From: from,
									Payload: wire.Opinion{Instance: inst, X: wire.V(float64(rng.Intn(3)))}})
							}
						}
						rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
						if growing {
							// A few more senders join the census, the way
							// the standalone node observes its inbox
							// before noting it.
							for k := 0; k < 20; k++ {
								cen.Observe(universe[rng.Intn(len(universe))])
							}
						}
						inbox := simnet.InboxOf(msgs...)
						if shape := rng.Intn(4); shape != 0 {
							// Healthy round: whole senders broadcast —
							// all of them when shape is 1.
							direct := ids.NewSet()
							for _, from := range universe {
								if shape != 1 && rng.Intn(5) == 0 {
									direct.Add(from)
								}
							}
							var block, private []simnet.Received
							for _, m := range msgs {
								if direct.Contains(m.From) {
									private = append(private, m)
								} else {
									block = append(block, m)
								}
							}
							inbox = simnet.InboxOfRound(block, private)
						}
						noteInbox(core, inbox, cen)
						ref.noteInbox(inbox, cen.Contains)
						var gotX wire.Value
						gotOK := false
						for _, op := range opinionsOf(core, inbox, cen) {
							if op.Instance == instance {
								gotX, gotOK = op.X, true
							}
						}
						wantX, wantOK := ref.opinion(inbox, instance, cen.Contains)
						if gotOK != wantOK || !gotX.Equal(wantX) {
							t.Fatalf("window %d: coordinator %v's opinion (%v, %v), reference (%v, %v)",
								window, ref.lastSelected, gotX, gotOK, wantX, wantOK)
						}
						if wantOK {
							opinionsHeard.Add(1)
						}
					}
					nv := cen.N()
					var env simnet.RoundEnv
					var want []wire.Payload
					gotSel := core.LoopRound(nv, &env)
					wantSel := ref.loopRound(nv, func(p wire.Payload) { want = append(want, p) })
					got := env.Sent()
					if gotSel != wantSel {
						t.Fatalf("window %d: selection %+v, reference %+v", window, gotSel, wantSel)
					}
					if len(got) != len(want) {
						t.Fatalf("window %d: emitted %d payloads, reference %d", window, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("window %d: emitted[%d] = %+v, reference %+v", window, i, got[i], want[i])
						}
					}
					if !core.Candidates().Equal(&ref.candidates) {
						t.Fatalf("window %d: C_v = %v, reference %v",
							window, core.Candidates().Members(), ref.candidates.Members())
					}
				}
				if ref.candidates.Len() == 0 || ref.candidates.Len() == len(pool) {
					t.Fatalf("degenerate trial: %d of %d candidates admitted", ref.candidates.Len(), len(pool))
				}
			})
		}
	}
}

// Runtime allocation gate: once a core has seen one window of a given
// shape, noting an all-echo inbox (every censused sender echoes every
// candidate: n² echoes in the shared block, read as n groups) and folding
// it allocates nothing — the rank table and the window are reused
// storage, not structures rebuilt per rotor round.
func TestWarmEchoWindowAllocatesNothing(t *testing.T) {
	const n = 128
	members := ids.Sparse(rand.New(rand.NewSource(1)), n)
	cen := census.New()
	msgs := make([]simnet.Received, 0, n*n)
	for _, from := range members {
		cen.Observe(from)
		for _, p := range members {
			msgs = append(msgs, simnet.Received{From: from, Payload: wire.IDEcho{Candidate: p}})
		}
	}
	inbox := simnet.InboxOfRound(msgs, nil)
	frozen := cen.Freeze()
	var ranks census.Ranks

	// n_v is held above 3n so that every row is sorted and counted but
	// no count reaches n_v/3: what is priced is the window, not the
	// echoes (simnet's TestSendPathZeroAlloc prices those).
	const nv = 4 * n
	core := NewCore(0)
	core.SetCycling(true)
	core.SeedCandidates(ids.NewSet(members[0]))
	var env simnet.RoundEnv
	round := func() {
		ranks.Reset(inbox.Broadcasters(), frozen)
		core.NoteInbox(inbox, &ranks)
		core.LoopRound(nv, &env)
	}
	round() // warm-up: sizes the slab
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("warm NoteInbox+LoopRound allocated %.0f times per window, want 0", allocs)
	}
	if got := core.Candidates().Len(); got != 1 {
		t.Fatalf("C_v grew to %d: the gate is meant to count rows, not admit them", got)
	}
}

// Emission order under a quota: in the first loop round every node owes
// one echo per candidate (all n reach 2n_v/3 at once), and under a
// SendQuota of 4 from that round on the four that survive are the echoes
// of the four smallest candidate ids — the fold sends in ascending
// candidate order, and the coordinator's opinion comes after the echoes.
func TestQuotaKeepsTheSmallestCandidates(t *testing.T) {
	t.Parallel()
	all := ids.Sparse(rand.New(rand.NewSource(4)), 10)
	nodes, tapID := all[:9], all[9]
	net := simnet.New(simnet.Config{MaxRounds: 10, FaultPlan: &simnet.FaultPlan{Events: []simnet.FaultEvent{
		{Round: 3, Kind: simnet.FaultQuota, SendQuota: 4},
	}}})
	defer net.Close()
	for _, id := range nodes {
		if err := net.Add(New(id, opinionOf(id))); err != nil {
			t.Fatal(err)
		}
	}
	tap := &roundTap{id: tapID, round: 4}
	if err := net.AddByzantine(tap); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	smallest := slices.Sorted(slices.Values(nodes))[:4]
	var want []string
	for _, from := range nodes {
		for _, cand := range smallest {
			want = append(want, fmt.Sprintf("%v %x", from, wire.Encode(wire.IDEcho{Candidate: cand})))
		}
	}
	got := tap.heard
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("round-3 sends that survived the quota:\n%v\nwant\n%v", got, want)
	}
}

// roundTap records what is delivered to it in one round.
type roundTap struct {
	id    ids.ID
	round int
	heard []string
}

func (r *roundTap) ID() ids.ID { return r.id }
func (r *roundTap) Done() bool { return false }
func (r *roundTap) Step(env *simnet.RoundEnv) {
	if env.Round == r.round {
		for m := range env.Inbox.All() {
			r.heard = append(r.heard, fmt.Sprintf("%v %x", m.From, wire.Encode(m.Payload)))
		}
	}
}
