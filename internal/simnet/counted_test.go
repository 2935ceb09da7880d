package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"uba/internal/ids"
	"uba/internal/wire"
)

// censusReader broadcasts one to four payloads a round, drawn from a
// small shared pool so that payloads repeat across senders, and from
// round 2 on reads its inbox counted against its own census, recording
// any difference from a count it makes itself out of Said and
// Broadcasters (which TestSaidMatchesAllAndIsBuiltOncePerRound holds
// against All).
type censusReader struct {
	id     ids.ID
	rng    *rand.Rand
	pool   []wire.Payload
	census *ids.Set

	found []string
}

func (p *censusReader) ID() ids.ID { return p.id }
func (p *censusReader) Done() bool { return false }

func (p *censusReader) Step(env *RoundEnv) {
	if env.Round > 1 {
		if diff := countedDiff(env.Inbox, p.census); diff != "" {
			p.found = append(p.found, fmt.Sprintf("round %d at %v: %s", env.Round, p.id, diff))
		}
	}
	for k := 1 + p.rng.Intn(4); k > 0; k-- {
		env.Broadcast(p.pool[p.rng.Intn(len(p.pool))])
	}
}

// countedDiff compares in.Counted(of) with the block counted against of
// by hand: every group's census ranks and count, and every instance's
// echoes in candidate order. It returns "" when they agree.
func countedDiff(in Inbox, of *ids.Set) string {
	v := in.Counted(of)
	said, bs := in.Said(), in.Broadcasters()
	if len(said) == 0 {
		if v != nil {
			return "an empty block has a view"
		}
		return ""
	}
	got := v.Said()
	if len(got) != len(said) {
		return fmt.Sprintf("%d counted groups, Said has %d", len(got), len(said))
	}
	var want []Echo
	for g := range said {
		var ranks []int
		for p, id := range bs {
			if r, ok := of.Rank(id); ok && said[g].By.Has(p) {
				ranks = append(ranks, r)
			}
		}
		if got[g].Payload != said[g].Payload {
			return fmt.Sprintf("group %d counts %v, Said has %v", g, got[g].Payload, said[g].Payload)
		}
		if got[g].Count != len(ranks) || got[g].Who.Count() != len(ranks) {
			return fmt.Sprintf("group %d (%v) counted %d (%d marks), want %d", g, said[g].Payload, got[g].Count, got[g].Who.Count(), len(ranks))
		}
		for _, r := range ranks {
			if !got[g].Who.Has(r) {
				return fmt.Sprintf("group %d (%v) lacks rank %d", g, said[g].Payload, r)
			}
		}
		if e, ok := said[g].Payload.(wire.IDEcho); ok && len(ranks) > 0 {
			want = append(want, Echo{Instance: e.Instance, Candidate: e.Candidate, Count: len(ranks)})
		}
	}
	slices.SortFunc(want, func(a, b Echo) int {
		return cmp.Or(cmp.Compare(a.Instance, b.Instance), cmp.Compare(a.Candidate, b.Candidate))
	})
	for i := 0; i < len(want); {
		inst := want[i].Instance
		j := i
		for j < len(want) && want[j].Instance == inst {
			j++
		}
		es := v.Echoes(inst)
		all := es.All()
		if len(all) != j-i {
			es.Release()
			return fmt.Sprintf("instance %d: %d echoes, want %d", inst, len(all), j-i)
		}
		for k, e := range all {
			if w := want[i+k]; e.Candidate != w.Candidate || e.Count != w.Count || e.Who.Count() != w.Count {
				es.Release()
				return fmt.Sprintf("instance %d: echo %d is %v×%d, want %v×%d", inst, k, e.Candidate, e.Count, w.Candidate, w.Count)
			}
		}
		es.Release()
		i = j
	}
	if es := v.Echoes(1 << 40); es.Len() != 0 {
		return "an instance nobody echoed has echoes"
	}
	return ""
}

// Every reader's counted view agrees with its own count of the block,
// round after round, for inline stepping and for three workers racing to
// ask first; and a round builds exactly one view per distinct census
// asked about. The four censuses are: everyone, everyone but the first
// node, everyone but the second — as long as the last, so a view matched
// by length alone is caught — and half the nodes plus two strangers. A
// drop rule that names nobody is live from round 8, so it scopes every
// link: the rounds after it deliver no block and build nothing, and
// everything arrives through Direct.
func TestCountedMatchesSaidAndIsBuiltOncePerCensus(t *testing.T) {
	t.Parallel()
	pool := []wire.Payload{
		wire.IDEcho{Candidate: 7}, wire.IDEcho{Candidate: 8}, wire.IDEcho{Instance: 1, Candidate: 7},
		wire.IDEcho{Instance: 1, Candidate: 1 << 20}, wire.IDEcho{Instance: 3, Candidate: 2},
		wire.Input{X: wire.V(0)}, wire.Input{X: wire.V(1)}, wire.Opinion{X: wire.V(2)},
	}
	const rounds, faultFrom = 10, 8
	for seed := int64(1); seed <= 4; seed++ {
		for _, workers := range []int{1, 3} {
			seed, workers := seed, workers
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				nodeIDs := ids.Sparse(rng, 70) // more than one word of broadcasters
				censuses := []*ids.Set{
					ids.NewSet(nodeIDs...).Seal(),
					ids.NewSet(nodeIDs[1:]...).Seal(),
					ids.NewSet(append([]ids.ID{nodeIDs[0]}, nodeIDs[2:]...)...).Seal(),
					ids.NewSet(append([]ids.ID{1, 1 << 50}, nodeIDs[:35]...)...).Seal(),
				}
				net := New(Config{MaxRounds: rounds + 1, FaultPlan: &FaultPlan{Seed: seed, Events: []FaultEvent{
					{Round: faultFrom, Kind: FaultDrop, Rate: 0.3},
				}}})
				net.forceWorkers(workers)
				defer net.Close()
				readers := make([]*censusReader, len(nodeIDs))
				for i, id := range nodeIDs {
					readers[i] = &censusReader{id: id, rng: rand.New(rand.NewSource(seed*1000 + int64(i))),
						pool: pool, census: censuses[i%len(censuses)]}
					if err := net.Add(readers[i]); err != nil {
						t.Fatal(err)
					}
				}
				for round := 1; round <= rounds; round++ {
					before := net.index.censuses.views.Load()
					if err := net.RunRound(); err != nil {
						t.Fatal(err)
					}
					want := int64(len(censuses))
					if round == 1 || round > faultFrom {
						want = 0
					}
					if got := net.index.censuses.views.Load() - before; got != want {
						t.Fatalf("round %d: %d views built, want %d", round, got, want)
					}
				}
				for _, p := range readers {
					if len(p.found) > 0 {
						t.Fatalf("%d differences, first: %s", len(p.found), p.found[0])
					}
				}
			})
		}
	}
}

// The guards of each census entry under contention, without a Network
// in the way: eight callers, released together, ask for the view of one
// of two censuses of a freshly reset echo block, and merge it with the
// broadcasters (Inbox.Union), five hundred times over — half of them
// through an equal set at another address. Each view and each merge
// must be built exactly once per reset, whether found by address or by
// content; every caller must see every echo counted in full (sixteen
// for the census of every sender, eight for the one that holds half of
// them), and every caller of one content gets one merged set: for the
// census that holds every broadcaster, one of the two equal sets itself.
func TestCountedViewsBuildOnceUnderContention(t *testing.T) {
	t.Parallel()
	const n, callers, resets = 16, 8, 500
	var block []Received
	for from := 1; from <= n; from++ {
		for cand := 1; cand <= n; cand++ {
			block = append(block, Received{From: ids.ID(from), Payload: wire.IDEcho{Candidate: ids.ID(cand)}})
		}
	}
	all, half := ids.NewSet(), ids.NewSet(100, 101)
	for id := ids.ID(1); id <= n; id++ {
		all.Add(id)
		if id%2 == 0 {
			half.Add(id)
		}
	}
	censuses := []*ids.Set{all.Clone().Seal(), half.Clone().Seal(), all.Seal(), half.Seal()}
	in := InboxOfRound(block, nil)
	for r := 0; r < resets; r++ {
		in.idx.reset(in.bcast, in.idx.ranks, in.idx.nranks)
		before, merges := in.idx.censuses.views.Load(), in.idx.censuses.unions.Load()
		start := make(chan struct{})
		full := make([]bool, callers)
		merged := make([]*ids.Set, callers)
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				want := n / (1 + c%2)
				of := censuses[c%len(censuses)]
				es := in.Counted(of).Echoes(0)
				full[c] = es.Len() == n
				for _, e := range es.All() {
					full[c] = full[c] && e.Count == want && e.Who.Count() == want
				}
				es.Release()
				merged[c] = in.Union(of)
			}()
		}
		close(start)
		wg.Wait()
		if got := in.idx.censuses.views.Load() - before; got != 2 {
			t.Fatalf("reset %d: %d builds for %d callers of 2 censuses, want 2", r, got, callers)
		}
		if got := in.idx.censuses.unions.Load() - merges; got != 2 {
			t.Fatalf("reset %d: %d merges for 2 censuses, want 2", r, got)
		}
		if c := slices.Index(full, false); c >= 0 {
			t.Fatalf("reset %d: caller %d saw a partial view", r, c)
		}
		if m := merged[0]; m != censuses[0] && m != censuses[2] {
			t.Fatalf("reset %d: the census holds every broadcaster, but its merge is a new set", r)
		}
		if m := merged[1]; m.Len() != n+2 || !m.Sealed() {
			t.Fatalf("reset %d: the merge of half the senders holds %d, sealed %v", r, m.Len(), m.Sealed())
		}
		for c := range merged {
			if merged[c] != merged[c%2] {
				t.Fatalf("reset %d: caller %d got another merge of an equal census", r, c)
			}
		}
	}
}

// keeper keeps the echo list of round 2 through round 6 — the lifetime
// of a consensus phase's echoes — and compares it every round with a
// copy taken when it was handed out, while each round's own view is
// built around it.
type keeper struct {
	id     ids.ID
	census *ids.Set
	cands  []ids.ID
	kept   EchoList
	copied []Echo
	found  []string
}

func (k *keeper) ID() ids.ID { return k.id }
func (k *keeper) Done() bool { return false }

func (k *keeper) Step(env *RoundEnv) {
	switch {
	case env.Round == 2:
		k.kept = env.Inbox.Counted(k.census).Echoes(0)
		k.copied = slices.Clone(k.kept.All())
	case env.Round > 2:
		for i, e := range k.kept.All() {
			if c := k.copied[i]; e.Candidate != c.Candidate || e.Count != c.Count || e.Who.Count() != c.Count {
				k.found = append(k.found, fmt.Sprintf("round %d: kept echo %d is %v×%d, was %v×%d", env.Round, i, e.Candidate, e.Count, c.Candidate, c.Count))
			}
		}
		env.Inbox.Counted(k.census).Said() // this round's view, in recycled storage
	}
	if env.Round == 6 {
		k.kept.Release()
	}
	// A different number of candidates each round, so a view rebuilt in
	// the kept one's storage would rewrite its counts.
	for _, c := range k.cands[:1+env.Round%len(k.cands)] {
		env.Broadcast(wire.IDEcho{Candidate: c})
	}
}

// A pinned echo list outlives its round: the route pass drops the view
// it pins instead of recycling it, so nothing a later round builds
// writes into it; views nobody pins go back to spare.
func TestPinnedEchoesOutliveTheirRound(t *testing.T) {
	t.Parallel()
	nodeIDs := ids.Sparse(rand.New(rand.NewSource(5)), 9)
	net := New(Config{})
	defer net.Close()
	census := ids.NewSet(nodeIDs...).Seal()
	ks := make([]*keeper, len(nodeIDs))
	for i, id := range nodeIDs {
		ks[i] = &keeper{id: id, census: census, cands: nodeIDs[:i+1]}
		if err := net.Add(ks[i]); err != nil {
			t.Fatal(err)
		}
	}
	var pinned *Counted
	for round := 1; round <= 9; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
		if round != 2 {
			continue
		}
		// The route pass of round 2 has reset the table for round 3.
		pinned = ks[0].kept.v
		for _, k := range ks {
			if k.kept.v != pinned {
				t.Fatal("round 2: the keepers of one census kept different views")
			}
		}
		if got := pinned.pins.Load(); got != int32(len(ks)) {
			t.Fatalf("round 2: the view has %d pins, want one per keeper, %d", got, len(ks))
		}
		if tab := &net.index.censuses; slices.ContainsFunc(tab.spare, func(e *entry) bool { return &e.view == pinned }) || len(tab.live) != 0 {
			t.Fatal("round 2: the reset kept the pinned view for reuse")
		}
	}
	for _, k := range ks {
		if len(k.copied) == 0 {
			t.Fatalf("%v kept no echoes", k.id)
		}
		if len(k.found) > 0 {
			t.Fatalf("%d changes, first: %s", len(k.found), k.found[0])
		}
	}
	if pinned.pins.Load() != 0 {
		t.Fatalf("%d pins left after every keeper released", pinned.pins.Load())
	}
	if len(net.index.censuses.spare) == 0 {
		t.Fatal("no unpinned view went back to spare")
	}
}

// cycler pins the echo list of every fourth round and releases it three
// rounds later, the way a consensus node keeps a phase's echoes until
// its next loop round, and notes every view its census was counted in.
type cycler struct {
	id     ids.ID
	census *ids.Set
	kept   EchoList
	views  map[*Counted]bool
}

func (c *cycler) ID() ids.ID { return c.id }
func (c *cycler) Done() bool { return false }

func (c *cycler) Step(env *RoundEnv) {
	v := env.Inbox.Counted(c.census)
	c.views[v] = true
	switch env.Round % 4 {
	case 1:
		c.kept = v.Echoes(0)
	case 0:
		c.kept.Release()
	}
	env.Broadcast(wire.IDEcho{Candidate: c.id})
}

// A view whose last pin is released goes back into use: over ten
// pin-and-release cycles the network counts the census in no more views
// than one round's, one held and one spare, instead of a fresh one per
// cycle.
func TestReleasedViewIsReused(t *testing.T) {
	nodeIDs := ids.Sparse(rand.New(rand.NewSource(6)), 5)
	net := New(Config{})
	defer net.Close()
	census := ids.NewSet(nodeIDs...).Seal()
	c := &cycler{id: nodeIDs[0], census: census, views: map[*Counted]bool{}}
	if err := net.Add(c); err != nil {
		t.Fatal(err)
	}
	for _, id := range nodeIDs[1:] {
		if err := net.Add(&cycler{id: id, census: census, views: map[*Counted]bool{}}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 41; round++ {
		if err := net.RunRound(); err != nil {
			t.Fatal(err)
		}
		if round%4 == 1 && round > 1 && c.kept.Len() == 0 {
			t.Fatalf("round %d: the cycler pinned no echoes", round)
		}
	}
	delete(c.views, nil) // round 1 has no block
	if len(c.views) > 3 {
		t.Fatalf("the census was counted in %d distinct views over 10 pin cycles, want at most 3", len(c.views))
	}
	if held := len(net.index.censuses.held); held != 1 {
		t.Fatalf("%d views held after round 41's pin, want 1", held)
	}
}
