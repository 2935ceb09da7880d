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
// "less than n_v/3") in overflow-safe integer arithmetic. The set is an
// ids.Set, so a sender's rank is its position in id order; the count of
// distinct senders that goes into those comparisons is kept here too:
// Marks, bits over those ranks.
//
// A rank is a position, so observing a new sender shifts the ranks of
// every member above it. The rule that follows: a live Census's ranks —
// and a Ranks table laid over it — hold until its next Observe, and a
// count that spans Steps counts against a Frozen, which never changes.
// The standalone protocols observe, count and fold inside one Step;
// consensus and parallel consensus freeze n_v first.
package census

import "uba/internal/ids"

// Census records the distinct nodes a given node has received at least
// one message from, as a set ordered by id: a member's rank is its
// position in that order, dense in [0, N). Ranks let the protocols count
// distinct senders as marks in a bitset (Marks) instead of hashing every
// delivery. The zero value is an empty census ready to use.
type Census struct {
	members ids.Set
}

// Observe records that a message from sender has been received. It
// reports whether the sender was new to the census.
func (c *Census) Observe(sender ids.ID) bool { return c.members.Add(sender) }

// ObserveAscending observes every sender of run, which ascends — a
// round's broadcasters — with one merge into the census.
func (c *Census) ObserveAscending(run []ids.ID) { c.members.AddAscending(run) }

// N returns n_v, the number of distinct observed senders.
func (c *Census) N() int { return c.members.Len() }

// Members returns the census itself, the set whose positions are the
// ranks: the caller reads it and must not change it, and what it reads
// changes with the next Observe.
func (c *Census) Members() *ids.Set { return &c.members }

// Freeze returns an immutable snapshot of the census, ranked the same.
// The consensus algorithm (Alg 3) freezes n_v after initialization and
// thereafter only accepts messages from ids counted during
// initialization.
func (c *Census) Freeze() Frozen { return FrozenOf(&c.members) }

// Frozen is an immutable census snapshot. The zero value is the empty
// snapshot: it contains no one.
type Frozen struct {
	members ids.Set
}

// FrozenOf returns the census of a membership known in advance: a copy
// of members, ranked in id order like every census.
func FrozenOf(members *ids.Set) Frozen { return Frozen{members: *members.Clone()} }

// N returns the frozen n_v.
func (f *Frozen) N() int { return f.members.Len() }

// Contains reports whether sender was part of the snapshot.
func (f *Frozen) Contains(sender ids.ID) bool { return f.members.Contains(sender) }

// Members returns the snapshot as the ordered set whose positions are its
// ranks, for reading only: it is the snapshot's own storage.
func (f *Frozen) Members() *ids.Set { return &f.members }

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
