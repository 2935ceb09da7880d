// Package census implements n_v tracking and the quorum arithmetic of the
// id-only model.
//
// Nodes in the id-only model do not know n (the number of nodes) or f (the
// bound on Byzantine nodes). The paper's central device is to replace both
// with n_v — the number of distinct nodes that sent at least one message
// to node v up to the current round — and the thresholds n_v/3 and 2n_v/3.
// Because every correct node transmits in the first round, n_v is at least
// the number of correct nodes g, and because a node can receive from at
// most n nodes, n_v ≤ n; these two bounds drive every lemma in the paper.
//
// Census is that bookkeeping: a monotone set of observed sender ids, plus
// the exact threshold comparisons ("at least n_v/3", "at least 2n_v/3",
// "less than n_v/3") in overflow-safe integer arithmetic. The count of
// distinct senders that goes into those comparisons is kept here too:
// Marks, bits over the census's dense ranks.
package census

import "uba/internal/ids"

// Census records the distinct nodes a given node has received at least
// one message from, and numbers them densely: the k-th distinct sender
// observed has rank k-1. Ranks let the protocols count distinct senders
// as marks in a bitset (Marks) instead of hashing every delivery. The
// zero value is an empty census ready to use.
type Census struct {
	rank map[ids.ID]int
}

// New returns an empty census.
func New() *Census {
	return &Census{rank: make(map[ids.ID]int)}
}

// Observe records that a message from sender has been received. It
// reports whether the sender was new to the census.
func (c *Census) Observe(sender ids.ID) bool {
	if c.rank == nil {
		c.rank = make(map[ids.ID]int)
	}
	if _, ok := c.rank[sender]; ok {
		return false
	}
	c.rank[sender] = len(c.rank)
	return true
}

// N returns n_v, the number of distinct observed senders.
func (c *Census) N() int { return len(c.rank) }

// Rank returns sender's dense index in [0, N) — its position in
// first-observed order, which never changes once assigned — and whether
// sender has been observed at all.
func (c *Census) Rank(sender ids.ID) (int, bool) {
	r, ok := c.rank[sender]
	return r, ok
}

// Contains reports whether sender has been observed.
func (c *Census) Contains(sender ids.ID) bool {
	_, ok := c.rank[sender]
	return ok
}

// Members returns the observed sender ids as an ordered set.
func (c *Census) Members() *ids.Set {
	s := ids.NewSet()
	for id := range c.rank {
		s.Add(id)
	}
	return s
}

// Freeze returns an immutable snapshot of the census; every member keeps
// its rank. The consensus algorithm (Alg 3) freezes n_v after
// initialization and thereafter only accepts messages from ids counted
// during initialization.
func (c *Census) Freeze() Frozen {
	rank := make(map[ids.ID]int, len(c.rank))
	for id, r := range c.rank {
		rank[id] = r
	}
	return Frozen{rank: rank}
}

// Frozen is an immutable census snapshot. The zero value is the empty
// snapshot: it contains no one.
type Frozen struct {
	rank map[ids.ID]int
}

// FrozenOf returns the census of a membership known in advance: members,
// ranked in id order.
func FrozenOf(members *ids.Set) Frozen {
	rank := make(map[ids.ID]int, members.Len())
	for r := 0; r < members.Len(); r++ {
		rank[members.At(r)] = r
	}
	return Frozen{rank: rank}
}

// N returns the frozen n_v.
func (f Frozen) N() int { return len(f.rank) }

// Rank returns sender's dense index in [0, N) and whether sender was
// part of the snapshot.
func (f Frozen) Rank(sender ids.ID) (int, bool) {
	r, ok := f.rank[sender]
	return r, ok
}

// Contains reports whether sender was part of the snapshot.
func (f Frozen) Contains(sender ids.ID) bool {
	_, ok := f.rank[sender]
	return ok
}

// Members returns the snapshot membership as an ordered set.
func (f Frozen) Members() *ids.Set {
	s := ids.NewSet()
	for id := range f.rank {
		s.Add(id)
	}
	return s
}

// AtLeastThird reports count ≥ n/3, the paper's "received at least n_v/3
// messages" condition, computed as 3·count ≥ n to avoid rationals.
func AtLeastThird(count, n int) bool { return 3*count >= n }

// AtLeastTwoThirds reports count ≥ 2n/3, the paper's "received at least
// 2n_v/3 messages" condition, computed as 3·count ≥ 2n.
func AtLeastTwoThirds(count, n int) bool { return 3*count >= 2*n }

// LessThanThird reports count < n/3, the condition under which the
// consensus algorithm adopts the coordinator's opinion.
func LessThanThird(count, n int) bool { return 3*count < n }

// DiscardCount returns ⌊n/3⌋, the number of extreme values the
// approximate-agreement algorithm discards from each end.
func DiscardCount(n int) int { return n / 3 }
