package census

import (
	"testing"
	"testing/quick"

	"uba/internal/ids"
)

func TestObserveCountsDistinctSenders(t *testing.T) {
	t.Parallel()
	var c Census
	if c.N() != 0 {
		t.Fatalf("empty census N = %d", c.N())
	}
	if !c.Observe(3) {
		t.Fatal("first observation should be new")
	}
	if c.Observe(3) {
		t.Fatal("repeat observation should not be new")
	}
	c.Observe(9)
	c.Observe(1)
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3", c.N())
	}
	if !c.Members().Contains(9) || c.Members().Contains(4) {
		t.Fatal("Contains wrong")
	}
}

func TestZeroValueCensusIsUsable(t *testing.T) {
	t.Parallel()
	var c Census
	if c.N() != 0 || c.Members().Contains(1) {
		t.Fatal("zero census not empty")
	}
	if !c.Observe(1) || c.N() != 1 {
		t.Fatal("zero census Observe failed")
	}
}

func TestFreezeSnapshotIsImmutable(t *testing.T) {
	t.Parallel()
	var c Census
	c.Observe(10)
	c.Observe(20)
	frozen := c
	c.Observe(30)
	if frozen.N() != 2 {
		t.Fatalf("frozen N = %d, want 2", frozen.N())
	}
	if frozen.Contains(30) {
		t.Fatal("frozen snapshot saw later observation")
	}
	if !frozen.Contains(10) || !frozen.Contains(20) {
		t.Fatal("frozen snapshot lost members")
	}
	members := frozen.Members()
	if members.Len() != 2 || !members.Contains(10) || !members.Contains(20) {
		t.Fatalf("frozen members = %v", members.Members())
	}
}

func TestMembersOrdered(t *testing.T) {
	t.Parallel()
	var c Census
	for _, id := range []ids.ID{9, 2, 77, 5} {
		c.Observe(id)
	}
	got := c.Members().Members()
	want := []ids.ID{2, 5, 9, 77}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
}

func TestThresholdArithmetic(t *testing.T) {
	t.Parallel()
	tests := []struct {
		count, n                              int
		atLeastThird, atLeastTwoThirds, below bool
	}{
		// n = 9: n/3 = 3, 2n/3 = 6.
		{2, 9, false, false, true},
		{3, 9, true, false, false},
		{5, 9, true, false, false},
		{6, 9, true, true, false},
		{9, 9, true, true, false},
		// n = 10: n/3 = 3.33..., 2n/3 = 6.66... "At least n/3" is a
		// rational comparison in the paper, so count 4 is needed for
		// strict integers? No: count=4 ≥ 3.34 and count=3 < 3.34 is
		// false since 3 ≥ 10/3 fails (9 < 10).
		{3, 10, false, false, true},
		{4, 10, true, false, false},
		{6, 10, true, false, false},
		{7, 10, true, true, false},
		// n = 0 (before any message): every count passes ≥ 0.
		{0, 0, true, true, false},
		// Exact thirds: n = 12.
		{4, 12, true, false, false},
		{8, 12, true, true, false},
	}
	for _, tt := range tests {
		if got := AtLeastThird(tt.count, tt.n); got != tt.atLeastThird {
			t.Errorf("AtLeastThird(%d, %d) = %v, want %v", tt.count, tt.n, got, tt.atLeastThird)
		}
		if got := AtLeastTwoThirds(tt.count, tt.n); got != tt.atLeastTwoThirds {
			t.Errorf("AtLeastTwoThirds(%d, %d) = %v, want %v", tt.count, tt.n, got, tt.atLeastTwoThirds)
		}
		if got := LessThanThird(tt.count, tt.n); got != tt.below {
			t.Errorf("LessThanThird(%d, %d) = %v, want %v", tt.count, tt.n, got, tt.below)
		}
	}
}

func TestDiscardCount(t *testing.T) {
	t.Parallel()
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 1}, {6, 2}, {10, 3}, {300, 100},
	}
	for _, tt := range tests {
		if got := DiscardCount(tt.n); got != tt.want {
			t.Errorf("DiscardCount(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// Property: the three comparisons are consistent with exact rational
// arithmetic (count ≥ n/3 ⟺ 3·count ≥ n, etc.) for all non-negative
// inputs.
func TestThresholdsMatchRationalArithmetic(t *testing.T) {
	t.Parallel()
	prop := func(c, n uint16) bool {
		count, total := int(c%2000), int(n%2000)
		if AtLeastThird(count, total) != (3*count >= total) {
			return false
		}
		if AtLeastTwoThirds(count, total) != (3*count >= 2*total) {
			return false
		}
		if LessThanThird(count, total) == AtLeastThird(count, total) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property (core of the paper's Significance section): if all g > 2f
// correct nodes broadcast, then for every node v with n_v = g + f'_v
// (f'_v ≤ f faulty contacts), the correct count g passes the 2n_v/3
// threshold and the faulty count f'_v fails the n_v/3 threshold whenever
// f'_v < (g+f'_v)/3. This is the arithmetic backbone of Lemma rn-g1.
func TestQuorumArithmeticBackbone(t *testing.T) {
	t.Parallel()
	prop := func(fRaw, fvRaw uint8) bool {
		f := int(fRaw%50) + 1
		g := 2*f + 1 + int(fvRaw%10) // any g > 2f
		fv := int(fvRaw) % (f + 1)   // any f'_v ≤ f
		nv := g + fv
		// All correct nodes broadcasting always reach 2n_v/3.
		if !AtLeastTwoThirds(g, nv) {
			return false
		}
		// Byzantine-only senders can reach n_v/3 only if 3·f'_v ≥ n_v;
		// check the comparison agrees with that exact condition.
		return AtLeastThird(fv, nv) == (3*fv >= nv)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Ranks are positions in id order: dense (exactly 0..N-1), the number of
// members below the sender whatever order they were observed in, and
// defined exactly for the members. A later Observe shifts the live ranks
// of the members above the newcomer — why a count that spans Observes
// counts against a snapshot — and never a snapshot's.
func TestRankDenseStableAndConsistentWithContains(t *testing.T) {
	t.Parallel()
	var c Census // zero value
	if _, ok := c.Members().Rank(7); ok {
		t.Fatal("empty census ranked an id")
	}
	for _, id := range []ids.ID{900, 3, 41, 3, 7, 900, 12} {
		c.Observe(id)
		members := c.Members()
		for _, probe := range []ids.ID{900, 3, 41, 7, 12, 5, 1000} {
			r, ok := members.Rank(probe)
			if ok != members.Contains(probe) {
				t.Fatalf("after Observe(%v): Rank ok = %v but Contains = %v for %v", id, ok, members.Contains(probe), probe)
			}
			below := 0
			for k := 0; k < members.Len(); k++ {
				if members.At(k) < probe {
					below++
				}
			}
			if ok && r != below {
				t.Fatalf("after Observe(%v): rank of %v = %d, but %d members are below it", id, probe, r, below)
			}
		}
	}
	want := map[ids.ID]int{3: 0, 7: 1, 12: 2, 41: 3, 900: 4}
	frozen := c
	c.Observe(5)    // below 7, 12, 41 and 900: their live ranks move up one
	c.Observe(1000) // above everyone: no rank moves
	shifted := map[ids.ID]int{3: 0, 5: 1, 7: 2, 12: 3, 41: 4, 900: 5, 1000: 6}
	for id, r := range shifted {
		if got, ok := c.Members().Rank(id); !ok || got != r {
			t.Fatalf("live rank of %v = (%d, %v) after the later Observes, want %d", id, got, ok, r)
		}
		fr, fok := frozen.Members().Rank(id)
		if fok != frozen.Contains(id) {
			t.Fatalf("snapshot: Rank ok = %v but Contains = %v for %v", fok, frozen.Contains(id), id)
		}
		if w, member := want[id]; fok != member || fr != w {
			t.Fatalf("frozen rank of %v = (%d, %v), want (%d, %v): a later Observe reached the snapshot", id, fr, fok, w, member)
		}
	}
	if frozen.N() != len(want) || c.N() != len(shifted) {
		t.Fatalf("frozen N = %d, live N = %d", frozen.N(), c.N())
	}
	var zero Census
	if _, ok := zero.Members().Rank(3); ok || zero.Contains(3) || zero.N() != 0 {
		t.Fatal("zero Census is not empty")
	}
}

func TestMarksCountDistinctRanks(t *testing.T) {
	t.Parallel()
	var m Marks
	if m.Count() != 0 {
		t.Fatal("zero Marks not empty")
	}
	m = m.Cleared(201)
	for _, r := range []int{0, 63, 64, 0, 200, 63, 129} {
		m.Set(r)
	}
	if got := m.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5 distinct ranks", got)
	}
	m.Reset()
	if m.Count() != 0 {
		t.Fatal("Reset left marks behind")
	}
	m.Set(1)
	if m.Count() != 1 {
		t.Fatal("Marks unusable after Reset")
	}
	// The last rank of a set sized by MarkWords fits, at every word edge.
	for _, n := range []int{1, 63, 64, 65, 128, 129} {
		row := make(Marks, MarkWords(n))
		row.Set(n - 1)
		if !row.Has(n-1) || row.Count() != 1 || len(row) != (n+63)/64 {
			t.Fatalf("n=%d: %d words, %x", n, len(row), row)
		}
	}
	if MarkWords(0) != 0 {
		t.Fatalf("MarkWords(0) = %d", MarkWords(0))
	}
}

// A census is a sealed set, replaced when a sender is new and never
// written: observing a member keeps the set, a new sender replaces it
// with a new sealed set, and every other holder of the old set — another
// census, or a snapshot taken by copying — keeps it unchanged.
func TestCensusIsReplacedOnlyWhenASenderIsNew(t *testing.T) {
	t.Parallel()
	shared := ids.NewSet(10, 20, 30)
	a, b := Of(shared), Of(shared)
	if a.Observe(20) || a.Members() != shared {
		t.Fatal("observing a member replaced the set")
	}
	snapshot := a
	if !a.Observe(25) {
		t.Fatal("a new sender was not new")
	}
	got := a.Members()
	if got == shared || !got.Sealed() || !got.Equal(ids.NewSet(10, 20, 25, 30)) {
		t.Fatalf("after a new sender the census is %v (sealed %v), want a new sealed 10 20 25 30", got.Members(), got.Sealed())
	}
	if !shared.Equal(ids.NewSet(10, 20, 30)) || b.Members() != shared || snapshot.Members() != shared {
		t.Fatalf("a new sender changed the shared set to %v", shared.Members())
	}
}

// Of shares the membership it is given and seals it, and the empty
// census is one shared, sealed empty set.
func TestOfSharesAndSeals(t *testing.T) {
	t.Parallel()
	s := ids.NewSet(3, 1, 2)
	f := Of(s)
	if f.Members() != s || !s.Sealed() || f.N() != 3 {
		t.Fatal("Of copied its membership or left it unsealed")
	}
	var c, z Census
	if c.Members() != z.Members() || !c.Members().Sealed() || z.N() != 0 {
		t.Fatal("the empty census is not one shared, sealed empty set")
	}
}
