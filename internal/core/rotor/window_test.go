package rotor

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"uba/internal/allocgate"
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// Differential property test: over seeded random windows the dense echo
// window and Algorithm 2's loop as the paper states it (spec.RotorCore: a
// set of sender ids per candidate, rebuilt every window, and a
// message-by-message walk for the coordinator's opinion) emit the same
// echoes, build the same C_v and make the same selections, and out of
// every inbox the opinion reader and the walk take the same opinion of
// the selected coordinator. The inboxes are hostile to every shortcut the
// dense window takes: more than 64 senders (multi-word rows), censused
// senders that stay silent and senders outside the census (so the rank
// table splits into short runs), echoes and opinions tagged for a foreign
// instance, the same (sender, candidate) echo repeated within an inbox
// and across the several inboxes of one window, senders that state two
// opinions in one inbox, and windows back to back so a reset that leaked
// a mark, a row or a stale position would change the next fold. Inboxes
// alternate between the two shapes the engine delivers: a healthy round
// (InboxOfRound — a random part of the senders broadcast into the shared
// block and are read payload-major, the rest arrive in the private
// segment) and a link-fault round (InboxOf — everything private, in
// arbitrary order with each sender's messages scattered rather than in
// one run); a healthy round in which nobody unicasts is all block. In the
// growing variant the census additionally gains members before every
// inbox and the core folds after every inbox, as the standalone node
// observes, notes and folds in one Step, so each window counts against a
// census larger than the last.
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
				// random order (ranks are id order whatever the order).
				var cen census.Census
				perm := rng.Perm(len(universe))
				members := perm[:len(perm)*4/5]
				if growing {
					members = members[:10]
				}
				for _, i := range members {
					cen.Observe(universe[i])
				}

				core, ref := NewCore(instance), spec.NewRotorCore(instance, true)
				core.SetCycling(true)
				// Per-candidate echo probability, so counts land on both
				// sides of n_v/3 and 2n_v/3.
				weight := make(map[ids.ID]float64, len(pool))
				for _, p := range pool {
					weight[p] = rng.Float64()
				}

				windows := 4
				if growing {
					windows = 12
				}
				for window := 0; window < windows; window++ {
					inboxes := 1 + rng.Intn(5)
					if growing {
						inboxes = 1
					}
					for ; inboxes > 0; inboxes-- {
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
						noteInbox(core, inbox, cen.Members())
						ref.Note(inbox, cen.Members().Contains)
						var gotX wire.Value
						gotOK := false
						for _, op := range opinionsOf(core, inbox, cen.Members()) {
							if op.Instance == instance {
								gotX, gotOK = op.X, true
							}
						}
						wantX, wantOK := ref.Opinion(inbox, cen.Members().Contains)
						if gotOK != wantOK || !gotX.Equal(wantX) {
							t.Fatalf("window %d: the coordinator's opinion (%v, %v), spec (%v, %v)",
								window, gotX, gotOK, wantX, wantOK)
						}
						if wantOK {
							opinionsHeard.Add(1)
						}
					}
					nv := cen.N()
					var env simnet.RoundEnv
					var want []wire.Payload
					gotSel := core.LoopRound(nv, &env)
					wantSel := ref.LoopRound(nv, func(p wire.Payload) { want = append(want, p) })
					got := env.Sent()
					if gotSel != Selection(wantSel) {
						t.Fatalf("window %d: selection %+v, spec %+v", window, gotSel, wantSel)
					}
					if len(got) != len(want) {
						t.Fatalf("window %d: emitted %d payloads, spec %d", window, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("window %d: emitted[%d] = %+v, spec %+v", window, i, got[i], want[i])
						}
					}
					if !slices.Equal(core.Candidates().Members(), ref.Candidates()) {
						t.Fatalf("window %d: C_v = %v, spec %v", window, core.Candidates().Members(), ref.Candidates())
					}
				}
				if cv := len(ref.Candidates()); cv == 0 || cv == len(pool) {
					t.Fatalf("degenerate trial: %d of %d candidates admitted", cv, len(pool))
				}
			})
		}
	}
}

// Runtime allocation gate: once a core has seen one window of a given
// shape, noting an all-echo inbox (every censused sender echoes every
// candidate: n² echoes in the shared block, read as n groups) and folding
// it allocates nothing — the inbox's counted view, the rank table and the
// window are reused storage, not structures rebuilt per rotor round.
func TestWarmEchoWindowAllocatesNothing(t *testing.T) {
	const n = 128
	members := ids.Sparse(rand.New(rand.NewSource(1)), n)
	var cen census.Census
	msgs := make([]simnet.Received, 0, n*n)
	for _, from := range members {
		cen.Observe(from)
		for _, p := range members {
			msgs = append(msgs, simnet.Received{From: from, Payload: wire.IDEcho{Candidate: p}})
		}
	}
	inbox := simnet.InboxOfRound(msgs, nil)
	frozen := cen
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
		core.NoteInbox(&inbox, Count(&inbox, frozen.Members(), &ranks))
		core.LoopRound(nv, &env)
	}
	round() // warm-up: sizes the slab
	if allocs := allocgate.Count(10, round); allocs != 0 {
		t.Fatalf("10 warm NoteInbox+LoopRound windows allocated %d times, want 0", allocs)
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
	tap := spec.NewTap(tapID)
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
	slices.Sort(want)
	if got := tap.Heard(4, nil); !slices.Equal(got, want) {
		t.Fatalf("round-3 sends that survived the quota:\n%v\nwant\n%v", got, want)
	}
}

// Whole runs of the standalone node against Algorithm 2 as the paper
// states it (spec.Rotor), in all three delivery shapes, with and without
// a send quota: the same sends queued round by round, the same
// selections and the same accepted opinions. The chatterers announce
// themselves, echo ghosts and Byzantine candidates, also under a foreign
// instance, and state two opinions a round, so that some run accepts the
// opinion of an equivocating Byzantine coordinator.
func TestNodeMatchesSpec(t *testing.T) {
	t.Parallel()
	spec.ForRotor.Test(t, spec.Side{
		New: func(r spec.Role) simnet.Process { return New(r.ID, wire.V(r.Input)) },
		Outcome: func(p simnet.Process) any {
			return []any{p.(*Node).Selections(), p.(*Node).AcceptedOpinions()}
		},
	}, spec.Somewhere(t, "accepted a Byzantine coordinator's opinion", func(nodes []simnet.Process) bool {
		for _, p := range nodes {
			for _, op := range p.(*spec.Rotor).AcceptedOpinions() {
				if !slices.ContainsFunc(nodes, func(q simnet.Process) bool { return q.ID() == op.From }) {
					return true
				}
			}
		}
		return false
	}))
}
