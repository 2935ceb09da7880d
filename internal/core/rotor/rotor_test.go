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
	"uba/internal/wire"
)

// censusOf returns a census of exactly the given ids.
func censusOf(members ...ids.ID) *census.Census {
	c := census.New()
	for _, id := range members {
		c.Observe(id)
	}
	return c
}

// noteInbox feeds core one inbox as seen by the census of, the way an
// owning Step does: lay the census over the inbox's broadcasters, then
// note.
func noteInbox(core *Core, inbox simnet.Inbox, of census.Ranker) {
	var ranks census.Ranks
	ranks.Reset(inbox.Broadcasters(), of)
	core.NoteInbox(inbox, &ranks)
}

// opinionsOf collects what core.Opinions yields for inbox as seen by the
// census of, in the order yielded.
func opinionsOf(core *Core, inbox simnet.Inbox, of census.Ranker) []wire.Opinion {
	var ranks census.Ranks
	ranks.Reset(inbox.Broadcasters(), of)
	var out []wire.Opinion
	core.Opinions(inbox, &ranks, func(op wire.Opinion) { out = append(out, op) })
	return out
}

// opinionOf fixes each node's opinion to a function of its id so tests can
// verify whose opinion was accepted.
func opinionOf(id ids.ID) wire.Value { return wire.V(float64(id % 1000003)) }

type runResult struct {
	nodes  []*Node
	rounds int
}

// runRotor builds and runs a rotor network: nCorrect correct nodes and the
// Byzantine processes produced by mkByz (given the byz ids and directory).
func runRotor(t *testing.T, seed int64, nCorrect, nByz int,
	mkByz func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process) runResult {
	t.Helper()
	return runRotorUnder(t, nil, seed, nCorrect, nByz, mkByz)
}

// runRotorUnder is runRotor on a network with the given fault plan.
func runRotorUnder(t *testing.T, plan *simnet.FaultPlan, seed int64, nCorrect, nByz int,
	mkByz func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process) runResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	all := ids.Sparse(rng, nCorrect+nByz)
	correctIDs := all[:nCorrect]
	byzIDs := all[nCorrect:]
	dir := adversary.NewDirectory(all, byzIDs)

	net := simnet.New(simnet.Config{MaxRounds: 30*(nCorrect+nByz) + 100, FaultPlan: plan})
	nodes := make([]*Node, 0, nCorrect)
	for _, id := range correctIDs {
		node := New(id, opinionOf(id))
		nodes = append(nodes, node)
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	if mkByz != nil {
		for _, p := range mkByz(byzIDs, dir) {
			if err := net.AddByzantine(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	rounds, err := net.Run(simnet.AllDone(correctIDs))
	if err != nil {
		t.Fatalf("rotor did not terminate: %v", err)
	}
	return runResult{nodes: nodes, rounds: rounds}
}

// isCorrect reports whether id belongs to the run's correct nodes.
func (r runResult) isCorrect(id ids.ID) bool {
	for _, n := range r.nodes {
		if n.ID() == id {
			return true
		}
	}
	return false
}

// hasGoodRound verifies the heart of Theorem 2: a round in which every
// correct node accepted the opinion of one common, correct coordinator.
func (r runResult) hasGoodRound() (int, bool) {
	if len(r.nodes) == 0 {
		return 0, false
	}
	for _, a := range r.nodes[0].AcceptedOpinions() {
		if !r.isCorrect(a.From) {
			continue
		}
		if !a.X.Equal(opinionOf(a.From)) {
			continue
		}
		common := true
		for _, other := range r.nodes[1:] {
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
			res := runRotor(t, int64(n), n, 0, nil)
			// All correct nodes become candidates; with a stable
			// candidate set of size n, reselection happens at loop
			// round n, i.e. termination within n + 3 network rounds.
			if res.rounds > n+3 {
				t.Fatalf("terminated after %d rounds, want ≤ %d", res.rounds, n+3)
			}
			for _, node := range res.nodes {
				if got := node.Candidates().Len(); got != n {
					t.Fatalf("node %v has %d candidates, want %d", node.ID(), got, n)
				}
			}
			if _, ok := res.hasGoodRound(); !ok {
				t.Fatal("no good round observed")
			}
		})
	}
}

func TestRotorCommonCoordinatorEachRoundNoFaults(t *testing.T) {
	t.Parallel()
	res := runRotor(t, 99, 9, 0, nil)
	// With identical candidate sets everywhere, every loop round must
	// select the same coordinator at every node.
	base := res.nodes[0].Selections()
	for _, node := range res.nodes[1:] {
		sels := node.Selections()
		if len(sels) != len(base) {
			t.Fatalf("node %v ran %d loop rounds, node %v ran %d",
				node.ID(), len(sels), res.nodes[0].ID(), len(base))
		}
		for r := range sels {
			if sels[r].Coordinator != base[r].Coordinator {
				t.Fatalf("loop round %d: %v selected %v, %v selected %v",
					r, node.ID(), sels[r].Coordinator, res.nodes[0].ID(), base[r].Coordinator)
			}
		}
	}
}

func TestRotorWithSilentByzantine(t *testing.T) {
	t.Parallel()
	mkByz := func(byzIDs []ids.ID, _ *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = adversary.NewSilent(id)
		}
		return out
	}
	for _, tc := range []struct{ g, f int }{{7, 2}, {10, 3}, {4, 1}} {
		tc := tc
		t.Run(fmt.Sprintf("g=%d_f=%d", tc.g, tc.f), func(t *testing.T) {
			t.Parallel()
			res := runRotor(t, int64(tc.g*100+tc.f), tc.g, tc.f, mkByz)
			if _, ok := res.hasGoodRound(); !ok {
				t.Fatal("no good round with silent Byzantine nodes")
			}
			n := tc.g + tc.f
			if res.rounds > 2*n+5 {
				t.Fatalf("termination took %d rounds for n=%d", res.rounds, n)
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
			mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
				out := make([]simnet.Process, len(byzIDs))
				for i, id := range byzIDs {
					out[i] = adversary.NewGhostCandidate(id, dir, ghosts)
				}
				return out
			}
			res := runRotor(t, seed, g, f, mkByz)
			round, ok := res.hasGoodRound()
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
			if res.rounds > 4*n {
				t.Fatalf("termination took %d rounds (> 4n = %d)", res.rounds, 4*n)
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
	mkByz := func(byzIDs []ids.ID, dir *adversary.Directory) []simnet.Process {
		out := make([]simnet.Process, len(byzIDs))
		for i, id := range byzIDs {
			out[i] = adversary.NewGhostCandidate(id, dir, ghosts)
		}
		return out
	}
	res := runRotor(t, 42, 8, 2, mkByz)
	for _, node := range res.nodes {
		cand := node.Candidates()
		for _, other := range res.nodes {
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
		rng := rand.New(rand.NewSource(17))
		all := ids.Sparse(rng, 9)
		dir := adversary.NewDirectory(all, all[7:])
		net := simnet.New(simnet.Config{MaxRounds: 500, Workers: workers})
		nodes := make([]*Node, 0, 7)
		for _, id := range all[:7] {
			node := New(id, opinionOf(id))
			nodes = append(nodes, node)
			if err := net.Add(node); err != nil {
				t.Fatal(err)
			}
		}
		ghosts := ids.Sparse(rand.New(rand.NewSource(18)), 6)
		for _, id := range all[7:] {
			if err := net.AddByzantine(adversary.NewGhostCandidate(id, dir, ghosts)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.Run(simnet.AllDone(all[:7])); err != nil {
			t.Fatal(err)
		}
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
	cen := censusOf(10, 20, 30)
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
	if got := opinionsOf(core, inbox, censusOf(10, 20)); !slices.Equal(got, []wire.Opinion{{X: wire.V(3.5)}}) {
		t.Fatalf("opinions of coordinator 10: %v", got)
	}
	// The next selection moves the ear: the same inbox now reads as 20's.
	if sel = core.LoopRound(2, &simnet.RoundEnv{}); sel.Coordinator != 20 {
		t.Fatalf("selected %v", sel.Coordinator)
	}
	if got := opinionsOf(core, inbox, censusOf(10, 20)); !slices.Equal(got, []wire.Opinion{{X: wire.V(9)}}) {
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
		cen := censusOf(1, other)
		if tc.member {
			cen.Observe(coord)
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
	), censusOf(2, 3))
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
