// Package ids provides the identifier space of the id-only model.
//
// In the model of Khanchandani & Wattenhofer (PODC 2020), every node has a
// unique identifier that is not necessarily consecutive, and a node knows
// only its own identifier at initialization — not n, not f, and not the
// identifiers of the other nodes. This package supplies the identifier
// type, sparse (non-consecutive) identifier generation for experiments,
// and an ordered identifier set as required by the rotor-coordinator
// (candidate sets ordered by increasing identifier) and by Byzantine
// renaming (new name = rank in the final set).
package ids

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// ID is a node identifier. Identifiers are unique but non-consecutive;
// the zero value is reserved as "no node" and is never assigned.
type ID uint64

// None is the reserved zero identifier, used to mean "no node" (for
// example, "no coordinator selected yet").
const None ID = 0

// String formats the identifier for logs and test failure messages.
func (id ID) String() string {
	if id == None {
		return "id(none)"
	}
	return fmt.Sprintf("id(%d)", uint64(id))
}

// Sparse returns count unique identifiers drawn from a sparse space, in
// increasing order. The identifiers are deliberately non-consecutive:
// consecutive identifiers would trivialize the rotor-coordinator (a node
// could guess the next identifier), which is exactly the assumption the
// paper removes. The generator is deterministic in rng so experiments are
// reproducible.
func Sparse(rng *rand.Rand, count int) []ID {
	if count <= 0 {
		return nil
	}
	seen := make(map[ID]struct{}, count)
	out := make([]ID, 0, count)
	for len(out) < count {
		// Wide gaps: ids land anywhere in [1, 2^48), so runs of
		// consecutive values are vanishingly unlikely and the id
		// space gives no hint about n.
		candidate := ID(rng.Int63n(1<<48-1) + 1)
		if _, dup := seen[candidate]; dup {
			continue
		}
		seen[candidate] = struct{}{}
		out = append(out, candidate)
	}
	slices.Sort(out)
	return out
}

// Consecutive returns count consecutive identifiers starting at start.
// The classic baselines (king algorithm, trivial rotor) assume consecutive
// identifiers; this constructor exists for them and for tests that need
// predictable ids.
func Consecutive(start ID, count int) []ID {
	if count <= 0 {
		return nil
	}
	out := make([]ID, count)
	for i := range out {
		out[i] = start + ID(i)
	}
	return out
}

// Set is an ordered set of identifiers, maintained in increasing order.
// The zero value is an empty set ready to use.
//
// The rotor-coordinator indexes its candidate set by position
// (C_v[r mod |C_v|]) and renaming outputs a node's rank in the final set,
// so ordered positional access is part of the contract.
//
// A sealed set (Seal) never changes again: a write to it panics, so its
// address names its membership, and any number of holders may share it
// and compare it by pointer.
type Set struct {
	members []ID
	sealed  bool
}

// Seal makes the set immutable from now on and returns it. Sealing a
// sealed set writes nothing, so its holders may seal it concurrently.
func (s *Set) Seal() *Set {
	if !s.sealed {
		s.sealed = true
	}
	return s
}

// Sealed reports whether the set is sealed.
func (s *Set) Sealed() bool { return s.sealed }

// write panics if the set is sealed: every writer calls it first.
func (s *Set) write() {
	if s.sealed {
		panic("ids: write to a sealed set")
	}
}

// NewSet returns a set containing the given identifiers.
func NewSet(members ...ID) *Set {
	s := &Set{}
	for _, id := range members {
		s.Add(id)
	}
	return s
}

// Add inserts id, keeping the set ordered. It reports whether the id was
// newly added (false if it was already present).
func (s *Set) Add(id ID) bool {
	s.write()
	i, found := slices.BinarySearch(s.members, id)
	if !found {
		s.members = slices.Insert(s.members, i, id)
	}
	return !found
}

// AddAscending inserts every id of run, which ascends (repeats allowed),
// keeping the set ordered. It is one merge, not one Add per id: a pass
// counts the ids that are new, and a second lays them in from the back,
// in place, so a run that brings nothing new writes nothing and a set
// with room for the new ids allocates nothing.
func (s *Set) AddAscending(run []ID) {
	s.write()
	fresh := s.fresh(run)
	// i and w walk down the old members and the grown set; w-i is the
	// number of new ids still to lay in, so the merge stops at the
	// first old member that does not move.
	i, w := len(s.members)-1, len(s.members)+fresh-1
	s.members = slices.Grow(s.members, fresh)[:w+1]
	for j := len(run) - 1; w > i; j-- {
		for i >= 0 && s.members[i] > run[j] {
			s.members[w], i, w = s.members[i], i-1, w-1
		}
		if (i < 0 || s.members[i] != run[j]) && (j == 0 || run[j-1] != run[j]) {
			s.members[w], w = run[j], w-1
		}
	}
}

// With returns s ∪ run, run ascending (repeats allowed): s itself when
// run brings no new id, else a new unsealed set of exactly the union's
// size, made by one merge. s is only read.
func (s *Set) With(run []ID) *Set {
	fresh := s.fresh(run)
	if fresh == 0 {
		return s
	}
	out := make([]ID, 0, len(s.members)+fresh)
	i := 0
	for j, id := range run {
		for i < len(s.members) && s.members[i] < id {
			out, i = append(out, s.members[i]), i+1
		}
		if (i == len(s.members) || s.members[i] != id) && (j == 0 || run[j-1] != id) {
			out = append(out, id)
		}
	}
	return &Set{members: append(out, s.members[i:]...)}
}

// fresh counts the distinct ids of run, which ascends, that s lacks.
func (s *Set) fresh(run []ID) int {
	fresh, i := 0, 0
	for j, id := range run {
		for i < len(s.members) && s.members[i] < id {
			i++
		}
		if (i == len(s.members) || s.members[i] != id) && (j == 0 || run[j-1] != id) {
			fresh++
		}
	}
	return fresh
}

// Remove deletes id from the set. It reports whether the id was present.
func (s *Set) Remove(id ID) bool {
	s.write()
	i, found := slices.BinarySearch(s.members, id)
	if found {
		s.members = slices.Delete(s.members, i, i+1)
	}
	return found
}

// Contains reports whether id is in the set.
func (s *Set) Contains(id ID) bool {
	_, found := slices.BinarySearch(s.members, id)
	return found
}

// Len returns the number of members.
func (s *Set) Len() int { return len(s.members) }

// At returns the i-th smallest member. It panics if i is out of range,
// mirroring slice indexing; callers index with r mod Len() and therefore
// stay in range by construction.
func (s *Set) At(i int) ID { return s.members[i] }

// Rank returns the 0-based rank of id in the set and whether it is a
// member. Renaming assigns new identifier rank+1.
func (s *Set) Rank(id ID) (int, bool) {
	if i, found := slices.BinarySearch(s.members, id); found {
		return i, true
	}
	return 0, false
}

// Members returns a copy of the members in increasing order.
func (s *Set) Members() []ID {
	out := make([]ID, len(s.members))
	copy(out, s.members)
	return out
}

// Clone returns an independent copy of the set, unsealed.
func (s *Set) Clone() *Set {
	return &Set{members: s.Members()}
}

// CopyFrom makes s an independent copy of o, in s's own storage when it
// is large enough.
func (s *Set) CopyFrom(o *Set) {
	s.write()
	s.members = append(s.members[:0], o.members...)
}

// Hash returns a digest of the membership: equal sets hash equal, and
// unequal ones collide rarely — a hash is a filter, confirmed by Equal.
func (s *Set) Hash() uint64 {
	// Four independent lanes, so the multiplies of neighbouring members
	// overlap instead of waiting on each other.
	const k = 0x9e3779b97f4a7c15
	h0, h1, h2, h3 := uint64(len(s.members)), uint64(1), uint64(2), uint64(3)
	m := s.members
	for ; len(m) >= 4; m = m[4:] {
		h0 = (h0 ^ uint64(m[0])) * k
		h1 = (h1 ^ uint64(m[1])) * k
		h2 = (h2 ^ uint64(m[2])) * k
		h3 = (h3 ^ uint64(m[3])) * k
	}
	for _, id := range m {
		h0 = (h0 ^ uint64(id)) * k
	}
	x := h0 ^ bits.RotateLeft64(h1, 16) ^ bits.RotateLeft64(h2, 32) ^ bits.RotateLeft64(h3, 48)
	return (x ^ x>>29) * k
}

// Equal reports whether two sets have identical membership.
func (s *Set) Equal(other *Set) bool {
	if len(s.members) != len(other.members) {
		return false
	}
	for i, id := range s.members {
		if other.members[i] != id {
			return false
		}
	}
	return true
}
