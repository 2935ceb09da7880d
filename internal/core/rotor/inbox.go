package rotor

import (
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// ObserveSenders adds every sender of inbox to cen: the n_v bookkeeping
// of a node still meeting its world. The block's broadcasters ascend by
// id, so they go in by one merge (Census.ObserveAscending); the few
// senders of the private segment go in one by one. A census.Ranks laid
// over cen before this call no longer holds after it.
func ObserveSenders(cen *census.Census, inbox simnet.Inbox) {
	cen.ObserveAscending(inbox.Broadcasters())
	for _, m := range inbox.Direct() {
		cen.Observe(m.From)
	}
}

// Heard reads inbox the way every threshold count does: the shared block
// payload-major — each distinct payload once, with everyone who
// broadcast it — and the receiver's private segment one message at a
// time, each with its one sender. A (sender, payload) pair is delivered
// once either way. ranks is the reader's census laid over this inbox's
// broadcasters (census.Ranks.Reset); heard classifies the payload and
// asks from for the senders' ranks only when the payload counts.
func Heard(inbox simnet.Inbox, ranks *census.Ranks, heard func(p wire.Payload, from Senders)) {
	for _, g := range inbox.Said() {
		heard(g.Payload, Senders{ranks: ranks, by: g.By})
	}
	for _, m := range inbox.Direct() {
		heard(m.Payload, Senders{ranks: ranks, one: m.From})
	}
}

// Senders is who sent one payload of an inbox read by Heard, valid for
// the duration of the callback.
type Senders struct {
	ranks *census.Ranks
	by    census.Marks // broadcaster positions, for a payload of the block
	one   ids.ID       // the sender, for a message of the private segment
}

// Ranks returns the senders as ranks of the reader's census — those it
// knows: the others are left out, and ok is false when none is left.
// The set is the rank table's scratch, overwritten by the next call.
func (s Senders) Ranks() (who census.Marks, ok bool) {
	if s.by != nil {
		return s.ranks.Of(s.by)
	}
	return s.ranks.One(s.one)
}
