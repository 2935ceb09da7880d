package census

import "math/bits"

// Marks is a set of census ranks, one bit per rank: the "which distinct
// senders said this" behind every n_v/3 and 2n_v/3 comparison. Marking a
// rank twice is the same as marking it once, so a sender that repeats
// itself — within an inbox or across the inboxes of one tally window —
// is still counted once. The zero value is the empty set.
type Marks []uint64

// MarkWords returns the length of a set that holds ranks 0..n-1.
func MarkWords(n int) int { return (n + 63) >> 6 }

// Set adds rank to a set long enough to hold it (MarkWords, Cleared).
func (m Marks) Set(rank int) { m[rank>>6] |= 1 << (rank & 63) }

// Has reports whether rank is in the set.
func (m Marks) Has(rank int) bool {
	return rank>>6 < len(m) && m[rank>>6]&(1<<(rank&63)) != 0
}

// Or adds every rank of o to a set at least as long as o.
func (m Marks) Or(o Marks) {
	for i, w := range o {
		m[i] |= w
	}
}

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

// Cleared returns the empty set over ranks 0..n-1, in m's storage when
// it is large enough: the start of a count.
func (m Marks) Cleared(n int) Marks {
	need := MarkWords(n)
	if cap(m) < need {
		return make(Marks, need)
	}
	m = m[:need]
	clear(m)
	return m
}
