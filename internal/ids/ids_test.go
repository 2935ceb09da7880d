package ids

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSparseProducesUniqueSortedIDs(t *testing.T) {
	t.Parallel()
	for _, count := range []int{0, 1, 2, 7, 64, 1000} {
		rng := rand.New(rand.NewSource(42))
		got := Sparse(rng, count)
		if len(got) != count {
			t.Fatalf("Sparse(%d): got %d ids", count, len(got))
		}
		seen := make(map[ID]struct{}, count)
		for i, id := range got {
			if id == None {
				t.Fatalf("Sparse produced the reserved zero id at %d", i)
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("Sparse produced duplicate id %v", id)
			}
			seen[id] = struct{}{}
			if i > 0 && got[i-1] >= id {
				t.Fatalf("Sparse not sorted at %d: %v >= %v", i, got[i-1], id)
			}
		}
	}
}

func TestSparseIsDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	a := Sparse(rand.New(rand.NewSource(7)), 50)
	b := Sparse(rand.New(rand.NewSource(7)), 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := Sparse(rand.New(rand.NewSource(8)), 50)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical id sequences")
	}
}

func TestSparseIDsAreNonConsecutive(t *testing.T) {
	t.Parallel()
	// The point of the sparse generator is that ids carry no positional
	// information. With a 2^48 space and ≤ 10^3 ids, any adjacent pair
	// being consecutive indicates a generator bug.
	got := Sparse(rand.New(rand.NewSource(3)), 1000)
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1]+1 {
			t.Fatalf("consecutive ids at %d: %v, %v", i, got[i-1], got[i])
		}
	}
}

func TestConsecutive(t *testing.T) {
	t.Parallel()
	got := Consecutive(10, 4)
	want := []ID{10, 11, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if Consecutive(1, 0) != nil {
		t.Fatal("Consecutive(_, 0) should be nil")
	}
}

func TestSetAddRemoveContains(t *testing.T) {
	t.Parallel()
	s := NewSet()
	if s.Len() != 0 {
		t.Fatalf("new set has %d members", s.Len())
	}
	if !s.Add(5) || !s.Add(3) || !s.Add(9) {
		t.Fatal("Add of new members returned false")
	}
	if s.Add(5) {
		t.Fatal("Add of existing member returned true")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for i, want := range []ID{3, 5, 9} {
		if s.At(i) != want {
			t.Fatalf("At(%d) = %v, want %v", i, s.At(i), want)
		}
	}
	if !s.Contains(3) || s.Contains(4) {
		t.Fatal("Contains wrong")
	}
	if !s.Remove(5) {
		t.Fatal("Remove of member returned false")
	}
	if s.Remove(5) {
		t.Fatal("Remove of non-member returned true")
	}
	if s.Contains(5) || s.Len() != 2 {
		t.Fatal("Remove did not remove")
	}
}

func TestSetRank(t *testing.T) {
	t.Parallel()
	s := NewSet(100, 7, 55)
	tests := []struct {
		id     ID
		rank   int
		member bool
	}{
		{7, 0, true},
		{55, 1, true},
		{100, 2, true},
		{8, 0, false},
	}
	for _, tt := range tests {
		rank, ok := s.Rank(tt.id)
		if ok != tt.member || (ok && rank != tt.rank) {
			t.Errorf("Rank(%v) = (%d, %v), want (%d, %v)",
				tt.id, rank, ok, tt.rank, tt.member)
		}
	}
}

func TestSetCloneIsIndependent(t *testing.T) {
	t.Parallel()
	s := NewSet(1, 2, 3)
	c := s.Clone()
	c.Add(4)
	if s.Contains(4) {
		t.Fatal("mutating clone affected original")
	}
	if !s.Equal(NewSet(3, 2, 1)) {
		t.Fatal("Equal should ignore insertion order")
	}
	if s.Equal(c) {
		t.Fatal("sets with different membership compare equal")
	}
}

// Hash depends on the membership alone: equal sets hash equal however
// they were built, and the sets of one size that differ in one member,
// at every position, all hash apart.
func TestSetHash(t *testing.T) {
	t.Parallel()
	s := NewSet(Sparse(rand.New(rand.NewSource(2)), 37)...)
	if c := s.Clone(); !c.Equal(s) || c.Hash() != s.Hash() {
		t.Fatal("a copy hashes apart from its source")
	}
	seen := map[uint64]int{s.Hash(): -1}
	for i := 0; i < s.Len(); i++ {
		o := s.Clone()
		o.Remove(s.At(i))
		o.Add(1 + s.At(i)) // Sparse ids are never consecutive
		if j, dup := seen[o.Hash()]; dup {
			t.Fatalf("replacing member %d and member %d hash alike", i, j)
		}
		seen[o.Hash()] = i
	}
	if NewSet(3, 1, 2).Hash() != NewSet(1, 2, 3).Hash() {
		t.Fatal("the insertion order changed the hash")
	}
}

func TestSetMembersCopy(t *testing.T) {
	t.Parallel()
	s := NewSet(2, 1)
	m := s.Members()
	m[0] = 99
	if s.Contains(99) {
		t.Fatal("Members leaked internal slice")
	}
}

// Property: a Set built from any id slice has sorted unique members that
// match the input's distinct values exactly.
func TestSetMatchesReferenceModel(t *testing.T) {
	t.Parallel()
	prop := func(raw []uint64) bool {
		s := NewSet()
		ref := make(map[ID]struct{})
		for _, r := range raw {
			id := ID(r%1000 + 1)
			s.Add(id)
			ref[id] = struct{}{}
		}
		if s.Len() != len(ref) {
			return false
		}
		members := s.Members()
		if !sort.SliceIsSorted(members, func(i, j int) bool { return members[i] < members[j] }) {
			return false
		}
		for _, id := range members {
			if _, ok := ref[id]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved adds and removes agree with a map-based model.
func TestSetAddRemoveAgainstModel(t *testing.T) {
	t.Parallel()
	prop := func(ops []uint16) bool {
		s := NewSet()
		ref := make(map[ID]struct{})
		for _, op := range ops {
			id := ID(op%64 + 1)
			if op%2 == 0 {
				added := s.Add(id)
				_, existed := ref[id]
				if added == existed {
					return false
				}
				ref[id] = struct{}{}
			} else {
				removed := s.Remove(id)
				_, existed := ref[id]
				if removed != existed {
					return false
				}
				delete(ref, id)
			}
		}
		return s.Len() == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Differential property test: inserting an ascending run in one merge
// leaves the set exactly as one Add per id of the run does. The runs are
// built to hit every branch of the merge from the back: empty runs and
// empty sets, repeats within the run, ids the set already holds, and runs
// wholly below, wholly above and interleaved with the set, over sets
// with and without spare capacity.
func TestAddAscendingMatchesAddPerID(t *testing.T) {
	t.Parallel()
	shapes := []string{"empty", "below", "above", "interleaved", "present", "mixed"}
	for seed := int64(1); seed <= 40; seed++ {
		shape := shapes[seed%int64(len(shapes))]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, shape), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			base := NewSet()
			for k := rng.Intn(40); k > 0; k-- {
				base.Add(ID(1000 + rng.Intn(1000)))
			}
			var run []ID
			for k := 1 + rng.Intn(30); shape != "empty" && k > 0; k-- {
				var id ID
				switch shape {
				case "below":
					id = ID(1 + rng.Intn(999))
				case "above":
					id = ID(2000 + rng.Intn(1000))
				case "interleaved":
					id = ID(1000 + rng.Intn(1000))
				case "present":
					if base.Len() == 0 {
						continue
					}
					id = base.At(rng.Intn(base.Len()))
				case "mixed":
					id = ID(1 + rng.Intn(3000))
				}
				run = append(run, id)
				if rng.Intn(4) == 0 { // a repeat
					run = append(run, id)
				}
			}
			slices.Sort(run)

			want := base.Clone()
			for _, id := range run {
				want.Add(id)
			}
			for _, spare := range []int{0, len(run)} {
				got := base.Clone()
				got.members = slices.Grow(got.members, spare)
				got.AddAscending(run)
				if !got.Equal(want) {
					t.Fatalf("spare=%d: AddAscending(%v) on %v = %v, one Add per id %v",
						spare, run, base.Members(), got.Members(), want.Members())
				}
			}
			// With is the same merge into a new set of exactly the
			// union's size, and base is only read.
			before := base.Clone()
			if got := base.With(run); !got.Equal(want) || (got != base && cap(got.members) != want.Len()) || !base.Equal(before) {
				t.Fatalf("With(%v) on %v = %v (cap %d), want %v and base unchanged",
					run, before.Members(), got.Members(), cap(got.members), want.Members())
			}
			// A run that brings nothing new allocates nothing, and With
			// returns the set itself.
			if allocs := testing.AllocsPerRun(10, func() { want.AddAscending(run) }); allocs != 0 {
				t.Fatalf("AddAscending of a run already in the set allocated %.0f times", allocs)
			}
			if want.With(run) != want {
				t.Fatal("With of a run already in the set made a new set")
			}
		})
	}
}

// A sealed set refuses every write, and a clone of it is unsealed.
func TestSealedSetPanicsOnWrite(t *testing.T) {
	t.Parallel()
	for name, write := range map[string]func(*Set){
		"Add":          func(s *Set) { s.Add(9) },
		"AddAscending": func(s *Set) { s.AddAscending([]ID{1}) },
		"Remove":       func(s *Set) { s.Remove(1) },
	} {
		s := NewSet(1, 2).Seal()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a sealed set did not panic", name)
				}
			}()
			write(s)
		}()
		if !s.Equal(NewSet(1, 2)) {
			t.Errorf("%s changed a sealed set to %v", name, s.Members())
		}
		if c := s.Clone(); c.Sealed() || !c.Add(3) {
			t.Errorf("a clone of a sealed set is not writable")
		}
	}
}

func TestIDString(t *testing.T) {
	t.Parallel()
	if None.String() != "id(none)" {
		t.Fatalf("None.String() = %q", None.String())
	}
	if ID(7).String() != "id(7)" {
		t.Fatalf("ID(7).String() = %q", ID(7).String())
	}
}
