package rotor

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uba/internal/adversary"
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// noteInbox feeds core one inbox as seen by the census whose members are
// of, the way an owning Step does: count the inbox against the census,
// then note.
func noteInbox(core *Core, inbox simnet.Inbox, of *ids.Set) {
	var ranks census.Ranks
	core.NoteInbox(inbox, Count(inbox, of, &ranks))
}

// opinionsOf collects what core.Opinions yields for inbox as seen by the
// census whose members are of, in the order yielded.
func opinionsOf(core *Core, inbox simnet.Inbox, of *ids.Set) []wire.Opinion {
	var ranks census.Ranks
	var out []wire.Opinion
	core.Opinions(inbox, Count(inbox, of, &ranks), func(op wire.Opinion) { out = append(out, op) })
	return out
}

// opinionOf fixes each node's opinion to a function of its id so tests can
// verify whose opinion was accepted.
func opinionOf(id ids.ID) wire.Value { return wire.V(float64(id % 1000003)) }

// opinioned builds correct node i of a fleet with its opinionOf.
func opinioned(_ int, id ids.ID) *Node { return New(id, opinionOf(id)) }

// bound is the network of a run of n nodes under plan: 30 rounds a node
// and 100 more.
func bound(n int, plan *simnet.FaultPlan) simnet.Config {
	return simnet.Config{MaxRounds: 30*n + 100, FaultPlan: plan}
}

// hasGoodRound verifies the heart of Theorem 2: a round in which every
// correct node accepted the opinion of one common, correct coordinator.
func hasGoodRound(nodes []*Node) (int, bool) {
	if len(nodes) == 0 {
		return 0, false
	}
	for _, a := range nodes[0].AcceptedOpinions() {
		if !slices.ContainsFunc(nodes, func(n *Node) bool { return n.ID() == a.From }) {
			continue
		}
		if !a.X.Equal(opinionOf(a.From)) {
			continue
		}
		common := true
		for _, other := range nodes[1:] {
			found := false
			for _, b := range other.AcceptedOpinions() {
				if b.Round == a.Round && b.From == a.From && b.X.Equal(a.X) {
					found = true
					break
				}
			}
			if !found {
				common = false
				break
			}
		}
		if common {
			return a.Round, true
		}
	}
	return 0, false
}

func TestRotorNoFaults(t *testing.T) {
	t.Parallel()
	for _, n := range []int{4, 7, 13} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			nodes, rounds := spec.NewFleet(t, int64(n), n, 0, bound(n, nil), opinioned, nil).Run()
			// All correct nodes become candidates; with a stable
			// candidate set of size n, reselection happens at loop
			// round n, i.e. termination within n + 3 network rounds.
			if rounds > n+3 {
				t.Fatalf("terminated after %d rounds, want ≤ %d", rounds, n+3)
			}
			for _, node := range nodes {
				if got := node.Candidates().Len(); got != n {
					t.Fatalf("node %v has %d candidates, want %d", node.ID(), got, n)
				}
			}
			if _, ok := hasGoodRound(nodes); !ok {
				t.Fatal("no good round observed")
			}
		})
	}
}

func TestRotorCommonCoordinatorEachRoundNoFaults(t *testing.T) {
	t.Parallel()
	nodes, _ := spec.NewFleet(t, 99, 9, 0, bound(9, nil), opinioned, nil).Run()
	// With identical candidate sets everywhere, every loop round must
	// select the same coordinator at every node.
	base := nodes[0].Selections()
	for _, node := range nodes[1:] {
		sels := node.Selections()
		if len(sels) != len(base) {
			t.Fatalf("node %v ran %d loop rounds, node %v ran %d",
				node.ID(), len(sels), nodes[0].ID(), len(base))
		}
		for r := range sels {
			if sels[r].Coordinator != base[r].Coordinator {
				t.Fatalf("loop round %d: %v selected %v, %v selected %v",
					r, node.ID(), sels[r].Coordinator, nodes[0].ID(), base[r].Coordinator)
			}
		}
	}
}

func TestRotorWithSilentByzantine(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ g, f int }{{7, 2}, {10, 3}, {4, 1}} {
		tc := tc
		t.Run(fmt.Sprintf("g=%d_f=%d", tc.g, tc.f), func(t *testing.T) {
			t.Parallel()
			nodes, rounds := spec.NewFleet(t, int64(tc.g*100+tc.f), tc.g, tc.f, bound(tc.g+tc.f, nil), opinioned, spec.Silent).Run()
			if _, ok := hasGoodRound(nodes); !ok {
				t.Fatal("no good round with silent Byzantine nodes")
			}
			n := tc.g + tc.f
			if rounds > 2*n+5 {
				t.Fatalf("termination took %d rounds for n=%d", rounds, n)
			}
		})
	}
}

func TestRotorWithGhostCandidates(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			g, f := 10, 3
			ghostRNG := rand.New(rand.NewSource(seed + 1000))
			ghosts := ids.Sparse(ghostRNG, 20)
			mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
				return adversary.NewGhostCandidate(id, dir, ghosts)
			})
			nodes, rounds := spec.NewFleet(t, seed, g, f, bound(g+f, nil), opinioned, mkByz).Run()
			round, ok := hasGoodRound(nodes)
			if !ok {
				t.Fatal("ghost-candidate adversary prevented the good round")
			}
			if round == 0 {
				t.Fatal("good round reported as 0")
			}
			// O(n) termination must survive the attack. The ghost
			// attack can stretch C_v by up to 2f entries and delay
			// via non-silent rounds; 4n is a generous linear bound.
			n := g + f
			if rounds > 4*n {
				t.Fatalf("termination took %d rounds (> 4n = %d)", rounds, 4*n)
			}
		})
	}
}

// Candidate relay: if one correct node adds p to C_v at loop round r, all
// correct nodes have p in their candidate set by loop round r+1 (Lemma 3).
// We verify the weaker, directly observable consequence: final candidate
// sets of all correct nodes agree on which *correct* ids they contain, and
// every correct id is present.
func TestRotorCandidateSetsCoverCorrectNodes(t *testing.T) {
	t.Parallel()
	ghostRNG := rand.New(rand.NewSource(7))
	ghosts := ids.Sparse(ghostRNG, 10)
	mkByz := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
		return adversary.NewGhostCandidate(id, dir, ghosts)
	})
	nodes, _ := spec.NewFleet(t, 42, 8, 2, bound(10, nil), opinioned, mkByz).Run()
	for _, node := range nodes {
		cand := node.Candidates()
		for _, other := range nodes {
			if !cand.Contains(other.ID()) {
				t.Fatalf("node %v's candidates miss correct node %v",
					node.ID(), other.ID())
			}
		}
	}
}

func TestRotorDeterministicAcrossRunners(t *testing.T) {
	t.Parallel()
	run := func(workers int) [][]Selection {
		ghosts := ids.Sparse(rand.New(rand.NewSource(18)), 6)
		haunt := spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return adversary.NewGhostCandidate(id, dir, ghosts)
		})
		nodes, _ := spec.NewFleet(t, 17, 7, 2, simnet.Config{MaxRounds: 500, Workers: workers}, opinioned, haunt).Run()
		out := make([][]Selection, len(nodes))
		for i, n := range nodes {
			out[i] = n.Selections()
		}
		return out
	}
	base := run(1)
	for _, workers := range []int{2, 3, 5} {
		got := run(workers)
		for i := range base {
			if len(base[i]) != len(got[i]) {
				t.Fatalf("workers=%d node %d: %d vs %d loop rounds", workers, i, len(got[i]), len(base[i]))
			}
			for r := range base[i] {
				if base[i][r].Coordinator != got[i][r].Coordinator {
					t.Fatalf("workers=%d node %d loop round %d: %v vs %v",
						workers, i, r, got[i][r].Coordinator, base[i][r].Coordinator)
				}
			}
		}
	}
}

// The core used standalone must tolerate an empty candidate set (possible
// only under pathological adversarial init) without selecting anyone.
func TestCoreEmptyCandidateSet(t *testing.T) {
	t.Parallel()
	core := NewCore(0)
	var env simnet.RoundEnv
	sel := core.LoopRound(0, &env)
	if sel.Coordinator != ids.None || sel.Terminated {
		t.Fatalf("selection from empty candidates: %+v", sel)
	}
	if emitted := env.Sent(); len(emitted) != 0 {
		t.Fatalf("emitted %d payloads from empty core", len(emitted))
	}
}

func TestCoreSeedCandidates(t *testing.T) {
	t.Parallel()
	core := NewCore(3)
	core.SeedCandidates(ids.NewSet(5, 9, 2))
	var env simnet.RoundEnv
	sel := core.LoopRound(3, &env)
	if sel.Coordinator != 2 {
		t.Fatalf("first coordinator = %v, want smallest id 2", sel.Coordinator)
	}
	sel = core.LoopRound(3, &env)
	if sel.Coordinator != 5 {
		t.Fatalf("second coordinator = %v, want 5", sel.Coordinator)
	}
	// Seeded candidates need no echoes, and a selected node's opinion is
	// its owner's to broadcast, not the core's.
	if emitted := env.Sent(); len(emitted) != 0 {
		t.Fatalf("a seeded core emitted %v, want nothing", emitted)
	}
}

// A seeded core borrows the snapshot it is seeded from: a candidate it
// accepts by quorum goes into its own copy, so the snapshot — built with
// spare capacity, where an append would land unseen — and a second core
// seeded from it stay as they were.
func TestSeededCandidatesDoNotWriteTheScope(t *testing.T) {
	t.Parallel()
	scope := ids.NewSet(10, 20, 30) // three adds: capacity four
	cen := ids.NewSet(10, 20, 30)
	accept := func(core *Core, candidate ids.ID) {
		var echoes []simnet.Received
		for _, from := range []ids.ID{10, 20, 30} {
			echoes = append(echoes, simnet.Received{From: from, Payload: wire.IDEcho{Instance: 5, Candidate: candidate}})
		}
		noteInbox(core, simnet.InboxOfRound(echoes, nil), cen)
		core.LoopRound(3, &simnet.RoundEnv{})
	}
	a, b := NewCore(5), NewCore(5)
	a.SeedCandidates(scope)
	b.SeedCandidates(scope)
	accept(a, 25)
	if got := a.Candidates().Members(); !slices.Equal(got, []ids.ID{10, 20, 25, 30}) {
		t.Fatalf("core a accepted 25 into %v", got)
	}
	if got := scope.Members(); !slices.Equal(got, []ids.ID{10, 20, 30}) {
		t.Fatalf("core a's accept wrote the scope: %v", got)
	}
	if got := b.Candidates().Members(); !slices.Equal(got, []ids.ID{10, 20, 30}) {
		t.Fatalf("core a's accept reached core b: %v", got)
	}
	accept(b, 15)
	if got := b.Candidates().Members(); !slices.Equal(got, []ids.ID{10, 15, 20, 30}) {
		t.Fatalf("core b accepted 15 into %v", got)
	}
	if got := a.Candidates().Members(); !slices.Equal(got, []ids.ID{10, 20, 25, 30}) {
		t.Fatalf("core b's accept reached core a: %v", got)
	}
	if got := scope.Members(); !slices.Equal(got, []ids.ID{10, 20, 30}) {
		t.Fatalf("core b's accept wrote the scope: %v", got)
	}
}

func TestCoreTerminatesOnReselection(t *testing.T) {
	t.Parallel()
	core := NewCore(0)
	core.SeedCandidates(ids.NewSet(10, 20))
	if sel := core.LoopRound(2, &simnet.RoundEnv{}); sel.Coordinator != 10 || sel.Terminated {
		t.Fatalf("round 0: %+v", sel)
	}
	if sel := core.LoopRound(2, &simnet.RoundEnv{}); sel.Coordinator != 20 || sel.Terminated {
		t.Fatalf("round 1: %+v", sel)
	}
	sel := core.LoopRound(2, &simnet.RoundEnv{})
	if !sel.Terminated || sel.Coordinator != 10 {
		t.Fatalf("round 2 should reselect 10 and terminate: %+v", sel)
	}
	if !core.Terminated() {
		t.Fatal("core not terminated")
	}
	if sel := core.LoopRound(2, &simnet.RoundEnv{}); !sel.Terminated {
		t.Fatal("terminated core ran another round")
	}
}

func TestCoreOpinionAcceptance(t *testing.T) {
	t.Parallel()
	core := NewCore(0)
	core.SeedCandidates(ids.NewSet(10, 20))
	sel := core.LoopRound(2, &simnet.RoundEnv{}) // selects 10
	if sel.Coordinator != 10 {
		t.Fatalf("selected %v", sel.Coordinator)
	}
	// Opinion arrives from 10 (and a fake one from 20, which was not
	// the previous coordinator and must be ignored).
	inbox := simnet.InboxOf(
		simnet.Received{From: 10, Payload: wire.Opinion{X: wire.V(3.5)}},
		simnet.Received{From: 20, Payload: wire.Opinion{X: wire.V(9)}},
	)
	if got := opinionsOf(core, inbox, ids.NewSet(10, 20)); !slices.Equal(got, []wire.Opinion{{X: wire.V(3.5)}}) {
		t.Fatalf("opinions of coordinator 10: %v", got)
	}
	// The next selection moves the ear: the same inbox now reads as 20's.
	if sel = core.LoopRound(2, &simnet.RoundEnv{}); sel.Coordinator != 20 {
		t.Fatalf("selected %v", sel.Coordinator)
	}
	if got := opinionsOf(core, inbox, ids.NewSet(10, 20)); !slices.Equal(got, []wire.Opinion{{X: wire.V(9)}}) {
		t.Fatalf("opinions of coordinator 20: %v", got)
	}
}

// The one reader of coordinator opinions, case by case: what the selected
// coordinator sent comes out ascending by encoding however it travelled
// and in whatever order the private segment holds it, under every instance
// tag (the owner skips the foreign ones); nobody else's opinions do; and a
// coordinator outside the census, or no selection yet, yields nothing.
func TestOpinionsYieldsWhatTheSelectedCoordinatorSent(t *testing.T) {
	t.Parallel()
	const coord, other = ids.ID(10), ids.ID(20)
	op := func(instance uint64, x float64) wire.Opinion { return wire.Opinion{Instance: instance, X: wire.V(x)} }
	from := func(id ids.ID, ops ...wire.Opinion) []simnet.Received {
		out := make([]simnet.Received, len(ops))
		for i, o := range ops {
			out[i] = simnet.Received{From: id, Payload: o}
		}
		return out
	}
	// Encoding order: the instance tag first, then 2.0 before 1.0 before ⊥.
	lo, hi, bot, foreign := op(0, 2), op(0, 1), wire.Opinion{X: wire.Bot()}, op(4, 7)
	ascending := []wire.Opinion{lo, hi, bot, foreign}
	if !slices.IsSortedFunc(ascending, func(a, b wire.Opinion) int {
		return bytes.Compare(wire.Encode(a), wire.Encode(b))
	}) {
		t.Fatal("premise: opinion(2) < opinion(1) < opinion(⊥) < opinion(4:7) by encoding")
	}
	noise := append(from(other, op(0, 9), op(4, 9)), simnet.Received{From: coord, Payload: wire.IDEcho{Candidate: coord}})
	for _, tc := range []struct {
		name             string
		block, private   []simnet.Received
		selected, member bool
		want             []wire.Opinion
	}{
		{"broadcast only", from(coord, hi, foreign, lo), nil, true, true, []wire.Opinion{lo, hi, foreign}},
		{"unicast only", nil, from(coord, hi, foreign, lo), true, true, []wire.Opinion{lo, hi, foreign}},
		{"both", from(coord, hi, foreign), from(coord, bot, lo), true, true, ascending},
		{"nothing from the coordinator", nil, nil, true, true, nil},
		{"coordinator outside the census", from(coord, hi), from(coord, lo), true, false, nil},
		{"no selection yet", from(coord, hi), from(coord, lo), false, true, nil},
	} {
		core := NewCore(0)
		core.SeedCandidates(ids.NewSet(coord, other))
		if tc.selected {
			if sel := core.LoopRound(2, &simnet.RoundEnv{}); sel.Coordinator != coord {
				t.Fatalf("%s: selected %v", tc.name, sel.Coordinator)
			}
		}
		cen := ids.NewSet(1, other)
		if tc.member {
			cen.Add(coord)
		}
		healthy := simnet.InboxOfRound(append(tc.block, noise...), tc.private)
		if got := opinionsOf(core, healthy, cen); !slices.Equal(got, tc.want) {
			t.Errorf("%s: healthy round yields %v, want %v", tc.name, got, tc.want)
		}
		// A link-fault round: everything private, in the order given.
		faulty := simnet.InboxOf(slices.Concat(tc.private, noise, tc.block)...)
		if got := opinionsOf(core, faulty, cen); !slices.Equal(got, tc.want) {
			t.Errorf("%s: link-fault round yields %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCoreFiltersByInstanceAndSender(t *testing.T) {
	t.Parallel()
	core := NewCore(7)
	// Echo with wrong instance must be ignored; echo from a sender
	// outside the census must be ignored.
	noteInbox(core, simnet.InboxOf(
		simnet.Received{From: 2, Payload: wire.IDEcho{Instance: 7, Candidate: 100}},
		simnet.Received{From: 3, Payload: wire.IDEcho{Instance: 8, Candidate: 100}},
		simnet.Received{From: 66, Payload: wire.IDEcho{Instance: 7, Candidate: 100}},
	), ids.NewSet(2, 3))
	// nv = 3: one valid echo passes n_v/3 (1 ≥ 1) but not 2n_v/3.
	var env simnet.RoundEnv
	core.LoopRound(3, &env)
	emitted := env.Sent()
	if core.Candidates().Len() != 0 {
		t.Fatal("candidate added from under-threshold echoes")
	}
	if len(emitted) != 1 {
		t.Fatalf("emitted %d payloads, want 1 relay echo", len(emitted))
	}
	echo, ok := emitted[0].(wire.IDEcho)
	if !ok || echo.Instance != 7 || echo.Candidate != 100 {
		t.Fatalf("relay echo = %+v", emitted[0])
	}
}

// whisperer is a Byzantine node that broadcasts nothing and, in round 4,
// unicasts once to one correct node, which hears it in round 5.
type whisperer struct{ id, to ids.ID }

func (w *whisperer) ID() ids.ID { return w.id }
func (w *whisperer) Done() bool { return false }
func (w *whisperer) Step(env *simnet.RoundEnv) {
	if env.Round == 4 {
		env.Send(w.to, wire.Opinion{X: wire.V(1)})
	}
}

// Every correct rotor node hears the same broadcasters, so from round 2
// on the fleet holds one shared census, the same pointer at every node.
// A private sender that the census lacks makes its one receiver copy
// the census and own it — with the sender in it — while the shared set,
// and every other node, stay as they were.
func TestCensusIsSharedUntilAPrivateSenderIsNew(t *testing.T) {
	t.Parallel()
	const g = 9
	for _, workers := range []int{1, 3} {
		var w *whisperer
		fl := spec.NewFleet(t, 3, g, 1, simnet.Config{MaxRounds: 40, Workers: workers}, opinioned,
			func(byz []ids.ID, _ *adversary.Directory) []simnet.Process {
				w = &whisperer{id: byz[0]}
				return []simnet.Process{w}
			})
		w.to = fl.IDs[0]
		for round := 1; round <= 6; round++ {
			nodes := fl.RunFor(1)
			if round < 2 {
				continue
			}
			shared := nodes[1].cen.Members()
			if !shared.Sealed() || shared.Len() != g || shared.Contains(w.id) {
				t.Fatalf("workers=%d round %d: the shared census is %v (sealed %v)", workers, round, shared.Members(), shared.Sealed())
			}
			for _, n := range nodes[1:] {
				if n.cen.Members() != shared {
					t.Fatalf("workers=%d round %d: node %v holds a census of its own", workers, round, n.ID())
				}
			}
			own := nodes[0].cen.Members()
			switch {
			case round < 5 && own != shared:
				t.Fatalf("workers=%d round %d: the whisperer's target left the shared census early", workers, round)
			case round >= 5 && (own == shared || own.Sealed() || own.Len() != g+1 || !own.Contains(w.id)):
				t.Fatalf("workers=%d round %d: the whisperer's target holds %v (sealed %v), want its own copy with the whisperer", workers, round, own.Members(), own.Sealed())
			}
		}
	}
}
