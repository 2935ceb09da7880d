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
// every member above it. The rule that follows: a Census's ranks — and
// a Ranks table laid over it — hold until its next Observe, and a count
// that spans Steps counts against a snapshot, a copy of the Census
// taken before, which later Observes do not reach. The standalone
// protocols observe, count and fold inside one Step; consensus and
// parallel consensus snapshot n_v first.
//
// Every correct node broadcasts from round 1, so most nodes of a run
// hold the same census. A census is therefore a sealed ids.Set, never
// written: held by any number of nodes and snapshots, compared by
// address, and replaced — never changed — when a sender is new. The
// engine merges each census with a round's senders once for all its
// holders and hands equal censuses one set back
// (simnet.Inbox.Union), so nodes that heard alike share one set.
package census

import "uba/internal/ids"

// nobody is the empty census, shared by every census that has observed
// no one.
var nobody = new(ids.Set).Seal()

// Census records the distinct nodes a given node has received at least
// one message from, as a set ordered by id: a member's rank is its
// position in that order, dense in [0, N). Ranks let the protocols count
// distinct senders as marks in a bitset (Marks) instead of hashing every
// delivery. The zero value is an empty census ready to use. A copy is a
// snapshot: the set it holds is sealed, so the copy keeps it however
// the original is updated.
type Census struct {
	members *ids.Set // sealed; nil while empty
}

// Of returns the census whose members are members: a membership known in
// advance, or a census merged by the engine. It seals members and shares
// it: the caller must not write it again.
func Of(members *ids.Set) Census { return Census{members: members.Seal()} }

// Observe records that a message from sender has been received. It
// reports whether the sender was new to the census; a new sender
// replaces the census with a new set that holds it.
func (c *Census) Observe(sender ids.ID) bool {
	m := c.Members()
	if m.Contains(sender) {
		return false
	}
	c.members = m.With([]ids.ID{sender}).Seal()
	return true
}

// N returns n_v, the number of distinct observed senders.
func (c *Census) N() int { return c.Members().Len() }

// Contains reports whether sender is in the census.
func (c *Census) Contains(sender ids.ID) bool { return c.Members().Contains(sender) }

// Members returns the census itself, the sealed set whose positions are
// the ranks; the next Observe may replace it, never change it.
func (c *Census) Members() *ids.Set {
	if c.members == nil {
		return nobody
	}
	return c.members
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
