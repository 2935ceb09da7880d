package ordering

import (
	"slices"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
)

// Chains are append-only: the chain read after any round extends the chain
// read after the round before (finality is irrevocable), and each read is
// the caller's own copy.
func TestChainIsAppendOnly(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 51, 5, 0, nil)
	node := nodes[0]
	var prev []ChainEntry
	for r := 0; r < 100; r++ {
		if r%2 == 0 {
			node.SubmitEvent(float64(r))
		}
		fl.RunFor(1)
		cur := node.Chain()
		if len(cur) < len(prev) || !slices.Equal(cur[:len(prev)], prev) {
			t.Fatalf("round %d: chain %v does not extend %v", r, cur, prev)
		}
		// Scribbling over this read must not show in the next one.
		prev = slices.Clone(cur)
		for i := range cur {
			cur[i] = ChainEntry{}
		}
	}
	if len(prev) == 0 {
		t.Fatal("nothing ever finalized")
	}
}

// A round costs the same however long the session has run: every node
// holds at most the executions inside the finality lag, ⌊5|S|/2⌋ + 3 of
// them, and a round late in a 2000-round session allocates what an early
// one did, under an absolute ceiling at this size (|S| = 9). Not parallel:
// it counts the process's allocations.
func TestSessionCostIsFlatInItsAge(t *testing.T) {
	fl, nodes := founded(t, 67, 7, 2, nil)
	const maxWindow = 5*9/2 + 3
	round := 0
	step := func() {
		round++
		nodes[round%len(nodes)].SubmitEvent(float64(round))
		fl.RunFor(1)
		for _, node := range nodes {
			if got := len(node.window); got > maxWindow {
				t.Fatalf("round %d: node %v holds %d executions, want at most %d", round, node.ID(), got, maxWindow)
			}
			if chain := node.Chain(); len(chain) > 0 && chain[len(chain)-1].Round != node.FinalizedThrough() {
				t.Fatalf("round %d: node %v chain ends at %v, finalized through %d",
					round, node.ID(), chain[len(chain)-1], node.FinalizedThrough())
			}
		}
	}
	for round < 199 {
		step()
	}
	early := testing.AllocsPerRun(100, step) // rounds 200–300
	for round < 1899 {
		step()
	}
	late := testing.AllocsPerRun(100, step) // rounds 1900–2000
	if late > 1.25*early {
		t.Fatalf("a round allocates %.0f objects at age 1900, %.0f at age 200", late, early)
	}
	// Measured: 174 objects for the seven nodes' Steps and the engine's
	// round (203 when every execution copied the snapshot's member set and
	// allocated its rotor core apart, 350 when it rebuilt the snapshot);
	// the ceiling is that plus 10 %.
	const ceiling = 191
	if early > ceiling || late > ceiling {
		t.Fatalf("a round allocates %.0f objects at age 200 and %.0f at age 1900, want at most %d", early, late, ceiling)
	}
	if got := nodes[0].FinalizedThrough(); got < uint64(round)-maxWindow {
		t.Fatalf("finalized through %d after %d rounds", got, round)
	}
}

// Several nodes join at the same time; all complete the handshake, align
// rounds, and their submissions get ordered.
func TestSimultaneousJoiners(t *testing.T) {
	t.Parallel()
	fl, founders := founded(t, 53, 5, 0, nil)
	fl.RunFor(3)
	var joiners []*Node
	for _, id := range []ids.ID{777001, 777002, 777003} {
		joiners = append(joiners, join(t, fl, id))
	}
	fl.RunFor(5)
	founderRound := founders[0].Round()
	for _, j := range joiners {
		if j.Round() != founderRound {
			t.Fatalf("joiner %v at round %d, founders at %d", j.ID(), j.Round(), founderRound)
		}
	}
	for i, j := range joiners {
		j.SubmitEvent(float64(9000 + i))
	}
	fl.RunFor(90)
	chain := founders[0].Chain()
	found := 0
	for _, e := range chain {
		if e.Value >= 9000 && e.Value < 9003 {
			found++
		}
	}
	if found != len(joiners) {
		t.Fatalf("%d joiner events ordered, want %d; chain %v", found, len(joiners), chain)
	}
	// All correct nodes still agree.
	checkChainPrefix(t, founders)
}

// The model lets a node unicast only to a node that has messaged it.
// Algorithm 6 is the one family registered to unicast at all (the Ack that
// tells a newcomer the round), and every Ack answers a present found in
// the inbox of the same Step: the engine enforces the rule, and a
// session of submitting founders and a joiner runs without ErrContactRule,
// and the joiner learns the round — the Acks were sent.
func TestOrderingObeysContactRule(t *testing.T) {
	t.Parallel()
	fl, founders := founded(t, 57, 4, 0, nil)
	var joiner *Node
	for round := 1; round <= 40; round++ {
		if round == 5 {
			joiner = join(t, fl, 777001)
		}
		for i, node := range founders {
			node.SubmitEvent(float64(100*round + i))
		}
		fl.RunFor(1) // fails the test on any engine error, ErrContactRule included
	}
	if got, want := joiner.Round(), founders[0].Round(); got == 0 || got != want {
		t.Fatalf("joiner at round %d, founders at %d: no Ack reached it", got, want)
	}
}

// Multiple leaves in quick succession: the survivors keep finalizing as
// long as the n > 3f invariant holds among them.
func TestCascadingLeaves(t *testing.T) {
	t.Parallel()
	fl, founders := founded(t, 59, 8, 0, nil)
	for i, node := range founders {
		node.SubmitEvent(float64(i))
	}
	fl.RunFor(10)
	founders[0].Leave()
	fl.RunFor(2)
	founders[1].Leave()
	fl.RunFor(100)
	if !founders[0].Done() || !founders[1].Done() {
		t.Fatal("leavers did not wind down")
	}
	survivors := founders[2:]
	chain := checkChainPrefix(t, survivors)
	if len(chain) == 0 {
		t.Fatal("survivors finalized nothing")
	}
	for _, node := range survivors {
		members := node.Members()
		if members.Contains(founders[0].ID()) || members.Contains(founders[1].ID()) {
			t.Fatalf("node %v still lists a leaver", node.ID())
		}
	}
}

// Every worker cap produces identical chains for the dynamic ordering
// protocol too.
func TestOrderingRunnersAgree(t *testing.T) {
	t.Parallel()
	run := func(workers int) []ChainEntry {
		members := ids.NewSet(spec.IDs(61, 6)...)
		fl := spec.NewFleet(t, 61, 5, 1, simnet.Config{MaxRounds: 5000, Workers: workers}, func(_ int, id ids.ID) *Node {
			node, err := NewFounder(id, members)
			if err != nil {
				t.Fatal(err)
			}
			return node
		}, spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
			return &equivocatingSubmitter{id: id, targets: dir.Correct()}
		}))
		nodes := fl.RunFor(0)
		for r := 0; r < 80; r++ {
			if r%3 == 0 {
				nodes[r%5].SubmitEvent(float64(r))
			}
			fl.RunFor(1)
		}
		return nodes[0].Chain()
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("empty chains")
	}
	for _, workers := range []int{2, 3, 5} {
		if got := run(workers); !slices.Equal(got, base) {
			t.Fatalf("workers=%d: chain differs from workers=1:\n  got:  %v\n  want: %v", workers, got, base)
		}
	}
}

// Round MaxRound+1 would pack onto round 0's instance tags, so no
// execution is started past MaxRound: founders placed a few rounds short
// of it order what was submitted up to the bound and nothing after.
func TestNoExecutionPastMaxRound(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 71, 5, 0, nil)
	for _, node := range nodes {
		node.r = MaxRound - 4
		node.firstRun = node.r + 1
	}
	for i := 0; i < 12; i++ {
		nodes[0].SubmitEvent(float64(i))
	}
	fl.RunFor(60)
	for _, node := range nodes {
		if node.Round() <= MaxRound {
			t.Fatalf("node %v only reached round %d", node.ID(), node.Round())
		}
		if len(node.window) != 0 || node.FinalizedThrough() != MaxRound {
			t.Fatalf("node %v: %d executions in flight, finalized through %d, want 0 and %d",
				node.ID(), len(node.window), node.FinalizedThrough(), uint64(MaxRound))
		}
	}
	// Execution r orders the event broadcast in round r−1, so the events
	// of rounds MaxRound−3 … MaxRound−1 are in and the rest are not.
	chain := checkChainPrefix(t, nodes)
	if len(chain) != 3 || chain[0].Round != MaxRound-2 || chain[2].Round != MaxRound {
		t.Fatalf("chain %v, want one event in each of the last three executions", chain)
	}
}
