package ordering

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/spec"
	"uba/internal/wire"
)

// founded is a fleet of g founders and f Byzantine nodes that byz builds
// (nil: none), every one of them a founding member, on a network of at
// most 5000 rounds, and its founders.
func founded(t *testing.T, seed int64, g, f int, byz spec.Byzantine) (*spec.Fleet[*Node], []*Node) {
	t.Helper()
	members := ids.NewSet(spec.IDs(seed, g+f)...)
	fl := spec.NewFleet(t, seed, g, f, simnet.Config{MaxRounds: 5000}, func(_ int, id ids.ID) *Node {
		node, err := NewFounder(id, members)
		if err != nil {
			t.Fatal(err)
		}
		return node
	}, byz)
	return fl, fl.RunFor(0)
}

// join adds a joiner with identifier id to fl's running system.
func join(t *testing.T, fl *spec.Fleet[*Node], id ids.ID) *Node {
	t.Helper()
	node, err := NewJoiner(id)
	if err != nil {
		t.Fatal(err)
	}
	fl.Add(node)
	return node
}

// checkChainPrefix verifies the chain-prefix property across all correct
// nodes and returns the longest chain.
func checkChainPrefix(t *testing.T, nodes []*Node) []ChainEntry {
	t.Helper()
	var longest []ChainEntry
	for _, node := range nodes {
		chain := node.Chain()
		if len(chain) > len(longest) {
			longest = chain
		}
	}
	for _, node := range nodes {
		chain := node.Chain()
		for i, e := range chain {
			if i >= len(longest) {
				t.Fatalf("node %v chain longer than longest", node.ID())
			}
			if longest[i] != e {
				t.Fatalf("node %v chain[%d] = %v, longest has %v",
					node.ID(), i, e, longest[i])
			}
		}
	}
	return longest
}

func TestFoundersOrderTheirEvents(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 1, 6, 0, nil)
	// Every founder submits a distinct event up front.
	for i, node := range nodes {
		node.SubmitEvent(float64(100 + i))
	}
	fl.RunFor(60)
	chain := checkChainPrefix(t, nodes)
	if len(chain) != len(nodes) {
		t.Fatalf("chain has %d events, want %d: %v", len(chain), len(nodes), chain)
	}
	// All events decided in one round's execution, ordered by submitter.
	seen := make(map[ids.ID]float64)
	for _, e := range chain {
		seen[e.Submitter] = e.Value
	}
	for i, node := range nodes {
		if seen[node.ID()] != float64(100+i) {
			t.Fatalf("submitter %v: value %v, want %v", node.ID(), seen[node.ID()], float64(100+i))
		}
	}
	// Ordering within the chain: by (round, submitter).
	for i := 1; i < len(chain); i++ {
		a, b := chain[i-1], chain[i]
		if a.Round > b.Round || (a.Round == b.Round && a.Submitter >= b.Submitter) {
			t.Fatalf("chain not ordered at %d: %v then %v", i, a, b)
		}
	}
}

func TestChainGrowth(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 2, 5, 0, nil)
	submitter := nodes[0]
	// Submit one event per round for a while.
	lastLen := 0
	grew := 0
	for round := 0; round < 90; round++ {
		submitter.SubmitEvent(float64(round))
		fl.RunFor(1)
		if l := len(submitter.Chain()); l > lastLen {
			grew++
			lastLen = l
		}
	}
	if lastLen < 20 {
		t.Fatalf("chain only reached %d events after 90 rounds of submissions", lastLen)
	}
	if grew < 10 {
		t.Fatalf("chain grew only %d times", grew)
	}
	checkChainPrefix(t, nodes)
}

func TestChainsIdenticalAfterQuiescence(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 3, 6, 0, nil)
	for i, node := range nodes {
		node.SubmitEvent(float64(i))
		if i%2 == 0 {
			node.SubmitEvent(float64(10 + i))
		}
	}
	fl.RunFor(100)
	base := nodes[0].Chain()
	if len(base) == 0 {
		t.Fatal("no events finalized")
	}
	for _, node := range nodes[1:] {
		chain := node.Chain()
		if len(chain) != len(base) {
			t.Fatalf("node %v chain length %d vs %d", node.ID(), len(chain), len(base))
		}
		for i := range base {
			if chain[i] != base[i] {
				t.Fatalf("chain divergence at %d: %v vs %v", i, chain[i], base[i])
			}
		}
	}
}

// equivocatingSubmitter is a Byzantine founder that sends different event
// values to different halves of the correct nodes — every round, or in
// round only alone when that is set.
type equivocatingSubmitter struct {
	id      ids.ID
	targets []ids.ID
	only    int
}

func (s *equivocatingSubmitter) ID() ids.ID { return s.id }
func (s *equivocatingSubmitter) Done() bool { return false }
func (s *equivocatingSubmitter) Step(env *simnet.RoundEnv) {
	if s.only != 0 && env.Round != s.only {
		return
	}
	mk := func(v float64, round uint64) wire.Payload {
		return wire.Event{
			Round: round,
			Body:  binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)),
		}
	}
	mid := len(s.targets) / 2
	for _, to := range s.targets[:mid] {
		env.Send(to, mk(1111, uint64(env.Round)))
	}
	for _, to := range s.targets[mid:] {
		env.Send(to, mk(2222, uint64(env.Round)))
	}
}

// A Byzantine member that equivocates its event submissions must not break
// the chain-prefix property; whichever value (or neither) is ordered, it
// is ordered identically everywhere.
func TestEquivocatingEventsKeepChainsConsistent(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			fl, nodes := founded(t, seed*10, 7, 2, spec.Each(func(id ids.ID, dir *adversary.Directory) simnet.Process {
				return &equivocatingSubmitter{id: id, targets: dir.Correct()}
			}))
			for i, node := range nodes {
				node.SubmitEvent(float64(i))
			}
			fl.RunFor(110)
			chain := checkChainPrefix(t, nodes)
			// The correct events must all be present.
			count := 0
			for _, e := range chain {
				for _, node := range nodes {
					if e.Submitter == node.ID() {
						count++
					}
				}
				if e.Value == 1111 || e.Value == 2222 {
					// A Byzantine event may be ordered — but only with
					// one of its two values, identically everywhere
					// (checked by prefix equality above).
					continue
				}
			}
			if count != len(nodes) {
				t.Fatalf("%d correct events ordered, want %d: %v", count, len(nodes), chain)
			}
		})
	}
}

func TestJoinerParticipatesAndAgrees(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 5, 5, 0, nil)
	fl.RunFor(3)
	// A joiner arrives at round 4.
	joinerID := spec.IDs(99, 1)[0]
	joiner := join(t, fl, joinerID)
	fl.RunFor(4)
	if joiner.Round() == 0 {
		t.Fatal("joiner did not initialize its round")
	}
	// Joiner's round must match the founders' from now on.
	founderNode := nodes[0]
	if joiner.Round() != founderNode.Round() {
		t.Fatalf("joiner round %d, founder round %d", joiner.Round(), founderNode.Round())
	}
	// Joiner submits an event; everyone must order it identically.
	joiner.SubmitEvent(777)
	fl.RunFor(80)
	var joinerEntry *ChainEntry
	for _, e := range founderNode.Chain() {
		if e.Submitter == joinerID {
			e := e
			joinerEntry = &e
		}
	}
	if joinerEntry == nil || joinerEntry.Value != 777 {
		t.Fatalf("joiner's event missing from founder chain: %+v", founderNode.Chain())
	}
	// The joiner's chain covers only rounds from its first run, but on
	// that window it must agree entry-for-entry with the founders.
	jc := joiner.Chain()
	if len(jc) == 0 {
		t.Fatal("joiner finalized nothing")
	}
	fc := founderNode.Chain()
	idx := 0
	for _, e := range fc {
		if e.Round < joiner.FirstRound() {
			continue
		}
		if idx >= len(jc) {
			break
		}
		if jc[idx] != e {
			t.Fatalf("joiner chain[%d] = %v, founder has %v", idx, jc[idx], e)
		}
		idx++
	}
	if idx == 0 {
		t.Fatal("no overlapping finalized rounds between joiner and founder")
	}
}

func TestLeaverWindsDownCleanly(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 6, 6, 0, nil)
	leaver := nodes[0]
	for i, node := range nodes {
		node.SubmitEvent(float64(i))
	}
	fl.RunFor(5)
	leaver.Leave()
	fl.RunFor(60)
	if !leaver.Done() {
		t.Fatal("leaver never finished winding down")
	}
	// Remaining nodes keep finalizing and agree.
	rest := nodes[1:]
	chain := checkChainPrefix(t, rest)
	if len(chain) == 0 {
		t.Fatal("survivors finalized nothing")
	}
	// The survivors' membership no longer includes the leaver.
	for _, node := range rest {
		if node.Members().Contains(leaver.ID()) {
			t.Fatalf("node %v still lists the leaver as a member", node.ID())
		}
	}
}

// Finality lag: by the paper's bound, execution r' finalizes within
// 5|S|/2 + 2 rounds after r'; measure the worst observed lag.
func TestFinalityLagWithinBound(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 7, 6, 0, nil)
	node := nodes[0]
	for i := 0; i < 40; i++ {
		node.SubmitEvent(float64(i))
		fl.RunFor(1)
	}
	fl.RunFor(40)
	finalized := node.FinalizedThrough()
	if finalized == 0 {
		t.Fatal("nothing finalized")
	}
	bound := uint64(5*6/2 + 2 + 1)
	if lag := node.Round() - finalized; lag > bound+1 {
		t.Fatalf("finality lag %d exceeds bound %d", lag, bound)
	}
}

func TestEventAppearsExactlyOnce(t *testing.T) {
	t.Parallel()
	fl, nodes := founded(t, 8, 5, 0, nil)
	nodes[1].SubmitEvent(3.5)
	fl.RunFor(70)
	chain := checkChainPrefix(t, nodes)
	count := 0
	for _, e := range chain {
		if e.Submitter == nodes[1].ID() && e.Value == 3.5 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("event ordered %d times, want once; chain: %v", count, chain)
	}
}

func TestFounderRejectsOversizedID(t *testing.T) {
	t.Parallel()
	if _, err := NewFounder(maxID+1, ids.NewSet(1)); err == nil {
		t.Fatal("oversized id accepted")
	}
	if _, err := NewJoiner(maxID + 1); err == nil {
		t.Fatal("oversized joiner id accepted")
	}
}
