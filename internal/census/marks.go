package census

import (
	"math/bits"

	"uba/internal/ids"
)

// Marks is a set of census ranks, one bit per rank: the "which distinct
// senders said this" behind every n_v/3 and 2n_v/3 comparison. Marking a
// rank twice is the same as marking it once, so a sender that repeats
// itself — within an inbox or across the inboxes of one tally window —
// is still counted once. The zero value is the empty set.
type Marks []uint64

// MarkWords returns the length of a set that holds ranks 0..n-1.
func MarkWords(n int) int { return (n + 63) >> 6 }

// Mark adds rank to the set, growing it as needed.
func (m *Marks) Mark(rank int) {
	if need := MarkWords(rank + 1); need > len(*m) {
		*m = append(*m, make([]uint64, need-len(*m))...)
	}
	m.Set(rank)
}

// Set adds rank to a set already long enough to hold it (MarkWords):
// the form for a caller that lays many sets out in one slab, like the
// rotor's echo window.
func (m Marks) Set(rank int) { m[rank>>6] |= 1 << (rank & 63) }

// Count returns the number of marked ranks.
func (m Marks) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset empties the set, keeping its storage for the next count.
func (m Marks) Reset() { clear(m) }

// BySenderRun wraps a census rank function for one pass over an inbox,
// resolving each run of consecutive messages from one sender with a
// single lookup instead of one per message. An engine inbox is sorted by
// sender, so that is one lookup per distinct sender; the result is the
// same for any order, because a run boundary is detected by comparing
// sender ids and a sender's rank cannot change during the pass — an
// unsorted inbox merely has more, shorter runs.
type BySenderRun struct {
	rank func(ids.ID) (int, bool)
	from ids.ID
	r    int
	ok   bool
}

// RankBySenderRun returns a resolver over rank (Census.Rank or
// Frozen.Rank).
func RankBySenderRun(rank func(ids.ID) (int, bool)) BySenderRun {
	s := BySenderRun{rank: rank, from: ids.None}
	s.r, s.ok = rank(ids.None)
	return s
}

// Rank returns rank(from), looked up only when from differs from the
// previous call's sender.
func (s *BySenderRun) Rank(from ids.ID) (int, bool) {
	if from != s.from {
		s.from = from
		s.r, s.ok = s.rank(from)
	}
	return s.r, s.ok
}
