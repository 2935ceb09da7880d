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
//
// Every correct node broadcasts from round 1, so most nodes of a run
// hold the same census. A census therefore refers to its member set,
// and that set is either shared — sealed (ids.Set.Seal), never written
// again, held by any number of nodes and compared by address — or the
// census's own, written in place. A census starts out shared (the empty
// set) and stays shared while each round brings it only broadcasters:
// the engine merges a shared census with the round's broadcasters once
// for all its holders (simnet.Inbox.Union). It comes to own a set only
// when it observes a sender its shared set lacks outside that merge — a
// private-segment sender, in practice — and copies the set once then;
// from there on it merges in place. Freeze seals the set it has and
// shares it with the snapshot, so a frozen census costs no copy.
package census

import "uba/internal/ids"

// nobody is the empty census, shared by every census that has observed
// no one and every empty snapshot.
var nobody = new(ids.Set).Seal()

// Census records the distinct nodes a given node has received at least
// one message from, as a set ordered by id: a member's rank is its
// position in that order, dense in [0, N). Ranks let the protocols count
// distinct senders as marks in a bitset (Marks) instead of hashing every
// delivery. The zero value is an empty census ready to use.
type Census struct {
	// members is the census: nil while empty, sealed while shared, and
	// written in place once it is the census's own.
	members *ids.Set
}

// Observe records that a message from sender has been received. It
// reports whether the sender was new to the census. A sender new to a
// shared census makes the census copy it, with the sender, into a set of
// its own.
func (c *Census) Observe(sender ids.ID) bool {
	m := c.Members()
	if !m.Sealed() {
		return m.Add(sender)
	}
	if m.Contains(sender) {
		return false
	}
	c.members = m.With([]ids.ID{sender})
	return true
}

// ObserveAscending observes every sender of run, which ascends — a
// round's broadcasters — with one merge in place into a census the node
// owns. A shared census takes the engine's merge instead (Share); this
// panics on one, as every write to a sealed set does.
func (c *Census) ObserveAscending(run []ids.ID) { c.Members().AddAscending(run) }

// Share makes the census the shared set s, which holds every member of
// the census: the engine's merge of a shared census with a round's
// broadcasters (simnet.Inbox.Union). It panics if s is not sealed.
func (c *Census) Share(s *ids.Set) {
	if !s.Sealed() {
		panic("census: Share of an unsealed set")
	}
	c.members = s
}

// N returns n_v, the number of distinct observed senders.
func (c *Census) N() int { return c.Members().Len() }

// Members returns the census itself, the set whose positions are the
// ranks: the caller reads it and must not change it, and what it reads
// changes with the next Observe. A shared census is a sealed set, which
// never changes; the next Observe may replace it.
func (c *Census) Members() *ids.Set {
	if c.members == nil {
		return nobody
	}
	return c.members
}

// Freeze returns an immutable snapshot of the census, ranked the same.
// The consensus algorithm (Alg 3) freezes n_v after initialization and
// thereafter only accepts messages from ids counted during
// initialization. The snapshot shares the census's set: Freeze seals
// it, so a census that observes a new sender afterwards copies it first.
func (c *Census) Freeze() Frozen { return Frozen{members: c.Members().Seal()} }

// Frozen is an immutable census snapshot. The zero value is the empty
// snapshot: it contains no one.
type Frozen struct {
	members *ids.Set // sealed; nil for the zero value
}

// FrozenOf returns the census of a membership known in advance, ranked
// in id order like every census. It seals members and shares it: the
// caller must not write it again.
func FrozenOf(members *ids.Set) Frozen { return Frozen{members: members.Seal()} }

// N returns the frozen n_v.
func (f *Frozen) N() int { return f.Members().Len() }

// Contains reports whether sender was part of the snapshot.
func (f *Frozen) Contains(sender ids.ID) bool { return f.Members().Contains(sender) }

// Members returns the snapshot as the ordered set whose positions are its
// ranks: a sealed set, which any number of snapshots may share.
func (f *Frozen) Members() *ids.Set {
	if f.members == nil {
		return nobody
	}
	return f.members
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
