package rotor

import (
	"uba/internal/census"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// ObserveSenders adds every sender of inbox to cen: the n_v bookkeeping
// of a node still meeting its world, and the one place every family
// updates a census. A shared census takes the engine's merge of it with
// the block's broadcasters (Inbox.Union), which every reader of the same
// census shares and which is the census itself when no broadcaster is
// new; a census the node owns merges them in place, by one merge since
// they ascend by id (Census.ObserveAscending). The few senders of the
// private segment go in one by one, and one the census lacks makes it
// the node's own. A View counted against cen before this call no longer
// holds after it.
func ObserveSenders(cen *census.Census, inbox simnet.Inbox) {
	if of := cen.Members(); of.Sealed() {
		cen.Share(inbox.Union(of))
	} else {
		cen.ObserveAscending(inbox.Broadcasters())
	}
	for _, m := range inbox.Direct() {
		cen.Observe(m.From)
	}
}

// View is how one reader sees one round's inbox against its census: the
// engine's counted view of the shared block (simnet.Counted), which every
// reader of the same census shares — found by address when the census
// is a shared, sealed set, by content when the reader owns it — and the
// reader's own rank table for its private segment, both over the same
// census. Count builds it once
// per Step and census; like the inbox it dies with the Step. Ranks are
// positions in the census, so every inbox that one window notes must be
// counted against one census state: an owner that notes several inboxes
// per fold counts against a census.Frozen, as consensus does; the
// standalone node observes, counts, notes and folds in one Step.
type View struct {
	block *simnet.Counted
	ranks *census.Ranks
}

// Count returns inbox as seen by the census whose members are of. ranks
// is the reader's own table, reused from Step to Step; it is laid over
// the census for the private segment (census.Ranks.One).
func Count(inbox simnet.Inbox, of *ids.Set, ranks *census.Ranks) View {
	ranks.Reset(nil, of)
	return View{block: inbox.Counted(of), ranks: ranks}
}

// Heard reads inbox the way every threshold count does: the shared block
// payload-major — each distinct payload once, with the census members
// who broadcast it, already counted by the engine — and the receiver's
// private segment one message at a time, each with its one sender. A
// (sender, payload) pair is delivered once either way. heard classifies
// the payload and asks from for the senders' ranks only when the
// payload counts.
func Heard(inbox simnet.Inbox, view View, heard func(p wire.Payload, from Senders)) {
	for _, g := range view.block.Said() {
		heard(g.Payload, Senders{who: g.Who, count: g.Count})
	}
	for _, m := range inbox.Direct() {
		heard(m.Payload, Senders{ranks: view.ranks, one: m.From})
	}
}

// Senders is who sent one payload of an inbox read by Heard, valid for
// the duration of the callback.
type Senders struct {
	who   census.Marks // the census ranks, for a payload of the block
	count int          // how many ranks who holds
	ranks *census.Ranks
	one   ids.ID // the sender, for a message of the private segment
}

// Ranks returns the senders as ranks of the reader's census — those it
// knows: the others are left out — and how many they are, 0 when none
// is left. The set is read-only: the engine's view for a payload of the
// block, the rank table's scratch, overwritten by the next call, for a
// private message.
func (s Senders) Ranks() (who census.Marks, count int) {
	if s.ranks == nil {
		return s.who, s.count
	}
	if who, ok := s.ranks.One(s.one); ok {
		return who, 1
	}
	return nil, 0
}
