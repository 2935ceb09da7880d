package simnet

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"uba/internal/allocgate"
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/wire"
)

// delivery identifies one delivered message the way the model does: who
// sent it and its canonical encoding.
type delivery struct {
	from ids.ID
	enc  string
}

// saidReader sends a random mix every round — broadcasts drawn from a
// small shared pool, so payloads repeat across senders, interleaved with
// unicasts from round 2 on; in round 1 it also broadcasts the pool's
// first payload, so every peer is a contact by then — and, in the rounds
// it is asked to, reads its inbox both ways and records any difference
// between the payload-major reading (Said × Broadcasters, plus Direct)
// and the sender-major one (All).
type saidReader struct {
	id    ids.ID
	rng   *rand.Rand
	peers []ids.ID
	pool  []wire.Payload
	reads func(round int) bool

	read  int // rounds in which the index was read
	found []string
}

func (p *saidReader) ID() ids.ID { return p.id }
func (p *saidReader) Done() bool { return false }

func (p *saidReader) Step(env *RoundEnv) {
	if p.reads(env.Round) {
		p.read++
		if diff := readBothWays(env.Inbox); diff != "" {
			p.found = append(p.found, fmt.Sprintf("round %d at %v: %s", env.Round, p.id, diff))
		}
	}
	if env.Round == 1 {
		env.Broadcast(p.pool[0])
	}
	for k := p.rng.Intn(5); k > 0; k-- {
		payload := p.pool[p.rng.Intn(len(p.pool))]
		if p.rng.Intn(3) == 0 && env.Round > 1 {
			env.Send(p.peers[p.rng.Intn(len(p.peers))], payload)
		} else {
			env.Broadcast(payload)
		}
	}
}

// readBothWays checks every promise of the payload-major accessors on
// one inbox against All, and returns the first one broken ("" if none).
func readBothWays(in Inbox) string {
	byAll := make(map[delivery]int)
	for m := range in.All() {
		byAll[delivery{m.From, m.encoded}]++
	}

	broadcasters := in.Broadcasters()
	if !slices.IsSorted(broadcasters) || len(slices.Compact(slices.Clone(broadcasters))) != len(broadcasters) {
		return fmt.Sprintf("Broadcasters not strictly ascending: %v", broadcasters)
	}
	byIndex := make(map[delivery]int)
	spoke := make([]bool, len(broadcasters))
	said := in.Said()
	prev := ""
	for i, g := range said {
		enc := string(wire.Encode(g.Payload))
		if i > 0 && prev >= enc {
			return fmt.Sprintf("Said[%d] does not ascend by encoding", i)
		}
		prev = enc
		if len(g.By) != census.MarkWords(len(broadcasters)) {
			return fmt.Sprintf("Said[%d].By is %d words for %d broadcasters", i, len(g.By), len(broadcasters))
		}
		if g.By.Count() == 0 {
			return fmt.Sprintf("Said[%d] was said by no one", i)
		}
		senders := 0
		for pos, from := range broadcasters {
			if g.By.Has(pos) {
				byIndex[delivery{from, enc}]++
				spoke[pos] = true
				senders++
			}
		}
		if senders != g.By.Count() {
			return fmt.Sprintf("Said[%d].By marks positions past the %d broadcasters", i, len(broadcasters))
		}
	}
	if i := slices.Index(spoke, false); i >= 0 {
		return fmt.Sprintf("broadcaster %v said nothing", broadcasters[i])
	}
	for _, m := range in.Direct() {
		byIndex[delivery{m.From, m.encoded}]++
	}
	if !maps.Equal(byIndex, byAll) {
		return fmt.Sprintf("Said×Broadcasters ∪ Direct = %v, All = %v", byIndex, byAll)
	}
	return ""
}

// Differential property test through whole rounds: for seeded random
// traffic the payload-major reading delivers exactly the multiset of
// (sender, payload) the sender-major one does, groups ascend by
// encoding, and the index is built exactly once in a round where anyone
// asks and not at all in a round where nobody does — for inline
// stepping and for three real workers racing to be the first to ask
// (run under -race, this is the once-guard's test). From round 8 on
// drop rules name three nodes, so those are fault-plan rounds: the
// named nodes' broadcasts, and everything the named nodes receive, go
// through the private segments (some copies dropped), and the block
// holds the other nodes' broadcasts.
func TestSaidMatchesAllAndIsBuiltOncePerRound(t *testing.T) {
	t.Parallel()
	pool := []wire.Payload{
		wire.Init{},
		wire.IDEcho{Candidate: 7}, wire.IDEcho{Candidate: 8}, wire.IDEcho{Instance: 1, Candidate: 7},
		wire.Input{X: wire.V(0)}, wire.Input{X: wire.V(1)},
		wire.Opinion{X: wire.V(2)},
		wire.Event{Round: 1, Body: []byte("a")}, wire.Event{Round: 1, Body: []byte("ab")},
	}
	const rounds = 12
	for seed := int64(1); seed <= 8; seed++ {
		for _, workers := range []int{1, 3} {
			seed, workers := seed, workers
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				t.Parallel()
				const faultFrom = 8
				rng := rand.New(rand.NewSource(seed))
				nodeIDs := ids.Sparse(rng, 70) // more than one word of broadcasters
				named := []ids.ID{nodeIDs[1], nodeIDs[5], nodeIDs[40]}
				plan := &FaultPlan{Seed: seed}
				for _, id := range named {
					plan.Events = append(plan.Events, FaultEvent{Round: faultFrom, Kind: FaultDrop, Node: uint64(id), Rate: 0.3})
				}
				net := New(Config{MaxRounds: rounds + 1, FaultPlan: plan})
				net.forceWorkers(workers)
				defer net.Close()
				// Nobody reads in rounds 3 and 9; everyone does otherwise.
				reads := func(round int) bool { return round != 3 && round != 9 }
				procs := make([]*saidReader, len(nodeIDs))
				for i, id := range nodeIDs {
					procs[i] = &saidReader{id: id, rng: rand.New(rand.NewSource(seed*1000 + int64(i))),
						peers: nodeIDs, pool: pool, reads: reads}
					if err := net.Add(procs[i]); err != nil {
						t.Fatal(err)
					}
				}
				namedBlocks := 0
				for round := 1; round <= rounds; round++ {
					before := net.index.builds
					if err := net.RunRound(); err != nil {
						t.Fatal(err)
					}
					want := 0
					if reads(round) && round > 1 { // round 1 delivers nothing to index
						want = 1
					}
					if got := net.index.builds - before; got != want {
						t.Fatalf("round %d: index built %d times, want %d", round, got, want)
					}
					if len(net.bcastBlock) == 0 {
						t.Fatalf("round %d routed an empty block", round)
					}
					if slices.ContainsFunc(net.bcastBlock, func(m Received) bool { return slices.Contains(named, m.From) }) {
						if round >= faultFrom {
							t.Fatalf("round %d routed a named node's broadcast in the block", round)
						}
						namedBlocks++
					}
				}
				for _, p := range procs {
					if p.read != rounds-2 {
						t.Fatalf("%v read the index in %d rounds, want %d", p.id, p.read, rounds-2)
					}
					if len(p.found) > 0 {
						t.Fatalf("%d differences, first: %s", len(p.found), p.found[0])
					}
				}
				if namedBlocks == 0 {
					t.Fatal("no round before the plan's routed a named node's broadcast in the block")
				}
			})
		}
	}
}

// The once-guard of blockIndex.ensure under contention, without a
// Network in the way: eight callers, released together by one closed
// channel, ask for the index of a freshly reset echo block, five hundred
// times over. Exactly one build may run per reset, and every caller must
// see the whole group list with every sender in every group. A guard
// that checks and then builds lets two callers build at once, which
// shows as a second build or a torn list at GOMAXPROCS 2 and 8, with or
// without -race.
func TestEnsureBuildsOnceUnderContention(t *testing.T) {
	t.Parallel()
	const n, callers, resets = 16, 8, 500
	var block []Received
	for from := 1; from <= n; from++ {
		for cand := 1; cand <= n; cand++ {
			block = append(block, Received{From: ids.ID(from), Payload: wire.IDEcho{Candidate: ids.ID(cand)}})
		}
	}
	in := InboxOfRound(block, nil)
	for r := 0; r < resets; r++ {
		in.idx.reset(in.bcast, in.idx.ranks, in.idx.nranks)
		before := in.idx.builds
		start := make(chan struct{})
		full := make([]bool, callers)
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				said := in.Said()
				full[c] = len(said) == n
				for _, g := range said {
					full[c] = full[c] && g.By.Count() == n
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := in.idx.builds - before; got != 1 {
			t.Fatalf("reset %d: %d builds for %d concurrent callers, want 1", r, got, callers)
		}
		if c := slices.Index(full, false); c >= 0 {
			t.Fatalf("reset %d: caller %d saw a partial index", r, c)
		}
	}
}

// The payload-major reading of a hand-built round, spelled out: who is
// at which position, which group holds whom, and what stays private.
func TestSaidGroupsBroadcastsByPayload(t *testing.T) {
	t.Parallel()
	echo7, echo8 := wire.IDEcho{Candidate: 7}, wire.IDEcho{Candidate: 8}
	var got Inbox
	reader := newRecorder(50, hello, nil, func(env *RoundEnv) {
		got = env.Inbox
		// Read inside Step: the views die with the round.
		if bs := env.Inbox.Broadcasters(); !slices.Equal(bs, []ids.ID{10, 30}) {
			t.Errorf("Broadcasters = %v, want [10 30]", bs)
		}
		said := env.Inbox.Said()
		if len(said) != 2 || said[0].Payload != echo7 || said[1].Payload != echo8 {
			t.Fatalf("Said = %+v, want echo(7), echo(8)", said)
		}
		if by := said[0].By; !by.Has(0) || !by.Has(1) || by.Count() != 2 {
			t.Errorf("echo(7) said by %x, want positions 0 and 1", by)
		}
		if by := said[1].By; by.Has(0) || !by.Has(1) || by.Count() != 1 {
			t.Errorf("echo(8) said by %x, want position 1 only", by)
		}
		direct := env.Inbox.Direct()
		if len(direct) != 1 || direct[0].From != 20 || direct[0].Payload != echo8 {
			t.Errorf("Direct = %+v, want the one unicast from 20", direct)
		}
	})
	net := New(Config{})
	defer net.Close()
	for _, p := range []Process{
		// Round 1 introduces 10 and the reader to 20, which unicasts to
		// both in round 2; the reader reads round 2's sends in round 3.
		newRecorder(10, hello, func(env *RoundEnv) { env.Broadcast(echo7) }),
		newRecorder(20, nil, func(env *RoundEnv) { env.Send(50, echo8); env.Send(10, echo7) }),
		newRecorder(30, nil, func(env *RoundEnv) { env.Broadcast(echo8); env.Broadcast(echo7) }),
		reader,
	} {
		if err := net.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mustRounds(t, net, 3)
	if got.Len() != 4 {
		t.Fatalf("reader's inbox held %d messages, want 4", got.Len())
	}
}

// InboxOfRound hands a test the inbox of a healthy round without a
// Network: engine order, a (sender, encoding) pair once with the
// broadcast winning, and a working index.
func TestInboxOfRoundIsAHealthyRoundsInbox(t *testing.T) {
	t.Parallel()
	echo7, echo8 := wire.IDEcho{Candidate: 7}, wire.IDEcho{Candidate: 8}
	in := InboxOfRound(
		[]Received{{From: 30, Payload: echo8}, {From: 10, Payload: echo7}, {From: 30, Payload: echo7}, {From: 10, Payload: echo7}},
		[]Received{{From: 20, Payload: echo8}, {From: 30, Payload: echo7}, {From: 5, Payload: echo8}},
	)
	var order []delivery
	for m := range in.All() {
		order = append(order, delivery{m.From, m.encoded})
	}
	e7, e8 := string(wire.Encode(echo7)), string(wire.Encode(echo8))
	want := []delivery{{5, e8}, {10, e7}, {20, e8}, {30, e7}, {30, e8}}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("All = %v, want %v", order, want)
	}
	if len(in.Direct()) != 2 {
		t.Fatalf("Direct = %+v, want the unicasts from 5 and 20 (30's duplicates its broadcast)", in.Direct())
	}
	if diff := readBothWays(in); diff != "" {
		t.Fatal(diff)
	}
	if in.idx.builds != 1 {
		t.Fatalf("index built %d times over one inbox's reads, want 1", in.idx.builds)
	}
	if empty := InboxOf(Received{From: 1, Payload: echo7}); empty.Said() != nil || empty.Broadcasters() != nil || len(empty.Direct()) != 1 {
		t.Fatal("InboxOf delivers through the private segment only")
	}
}

// The shape the index exists for — every one of n senders broadcasts
// the same n payloads, an echo round's n² block — rebuilt round over
// round allocates nothing once the scratch has seen one such round:
// n groups of n senders each, in a slab that is reused, not remade.
func TestWarmIndexBuildAllocatesNothing(t *testing.T) {
	const n = 96
	var block []Received
	for from := 1; from <= n; from++ {
		for cand := 1; cand <= n; cand++ {
			block = append(block, Received{From: ids.ID(from), Payload: wire.IDEcho{Candidate: ids.ID(cand)}})
		}
	}
	in := InboxOfRound(block, nil)
	round := func() {
		in.idx.reset(in.bcast, in.idx.ranks, in.idx.nranks) // what the next round's prepare pass does
		if got := len(in.Said()); got != n {
			t.Fatalf("%d groups, want %d", got, n)
		}
	}
	round()
	if allocs := allocgate.Count(20, round); allocs != 0 {
		t.Fatalf("20 warm index builds allocated %d times, want 0", allocs)
	}
	for _, g := range in.Said() {
		if g.By.Count() != n {
			t.Fatalf("echo(%v) said by %d of %d", g.Payload, g.By.Count(), n)
		}
	}
}
