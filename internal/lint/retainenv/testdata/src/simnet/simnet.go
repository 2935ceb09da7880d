// Package simnet is a trimmed-down stand-in for uba/internal/simnet:
// just enough surface (RoundEnv, Inbox, Received, the send methods) for
// the analyzer fixtures to type-check. The analyzers match RoundEnv by
// package name + type name, so fixtures behave like real Step methods.
package simnet

// Received mirrors the value-type delivered message. Body makes it
// reference-carrying like the real type (an interface, as the real
// Payload is), so the summary pass structurally sees element copies as
// aliasing — exactly the shape the //lint:valuecopy directive on At
// exists to override. Like the real type it holds no slice: nothing in
// it points into the recycled arrays, so a copied-out element is a
// value.
type Received struct {
	From int
	Body any
	size int
}

// Size mirrors the real accessor.
func (m Received) Size() int { return m.size }

// Payload mirrors reading the decoded body.
func (m Received) Payload() any { return m.Body }

// Said mirrors one entry of the payload-major reading of the broadcast
// block. Unlike Received it is not a value: By is a row of the engine's
// recycled slab, so an element copied out of Inbox.Said still aliases
// round-scoped memory (Body alone is safe to keep).
type Said struct {
	Body any
	By   []uint64
}

// Inbox mirrors the real lazy merged view: a value type over recycled
// backing storage. Retaining an Inbox (or an iterator from All) past
// Step retains the recycled arrays, so the retainenv pass tracks
// env.Inbox exactly as it tracked the former slice.
type Inbox struct {
	msgs    []Received
	senders []int
	said    []Said
	counted *Counted
}

// InboxOf mirrors the test constructor.
func InboxOf(msgs ...Received) Inbox { return Inbox{msgs: msgs} }

// Len mirrors the real accessor.
func (in Inbox) Len() int { return len(in.msgs) }

// At returns the i'th delivered message.
//
//lint:valuecopy At returns a by-value Received copy that shares no round-scoped backing memory
func (in Inbox) At(i int) Received { return in.msgs[i] }

// All returns an iterator over the delivered messages. The iterator
// closes over the recycled backing array: keeping it past Step is a
// retention violation, which is why All carries no valuecopy directive.
func (in Inbox) All() func(yield func(Received) bool) {
	return func(yield func(Received) bool) {
		for _, m := range in.msgs {
			if !yield(m) {
				return
			}
		}
	}
}

// Said, Broadcasters and Direct mirror the payload-major accessors:
// each returns a view of recycled engine scratch, so none carries a
// valuecopy directive and a Step that keeps one is a violation.
func (in Inbox) Said() []Said { return in.said }

// Broadcasters mirrors the block's distinct sender list.
func (in Inbox) Broadcasters() []int { return in.senders }

// Direct mirrors the receiver's private segment.
func (in Inbox) Direct() []Received { return in.msgs }

// Counted mirrors the broadcast block counted against a census: a view
// of recycled engine scratch like Said, so a Step that keeps it, or its
// Said rows, is a violation.
type Counted struct {
	said   []Said
	echoes []Echo
}

// Echo mirrors one counted echo group.
type Echo struct {
	Candidate int
	Count     int
	Who       []uint64
}

// Counted mirrors the lookup of the view of a census.
func (in Inbox) Counted(of []int) *Counted { return in.counted }

// Said mirrors the view's counted groups.
func (v *Counted) Said() []Said { return v.said }

// Echoes mirrors the pinned echo list: the engine never recycles the
// view a list names until the list is released, so a Step may keep it.
//
//lint:valuecopy the list pins the view it names, which the engine then never recycles or writes, so it may outlive the Step
func (v *Counted) Echoes(instance uint64) EchoList { return EchoList{v: v} }

// EchoList mirrors the pinned list: a handle on the view, no slice.
type EchoList struct {
	v      *Counted
	lo, hi int32
}

// All mirrors reading the list.
func (l EchoList) All() []Echo { return l.v.echoes[l.lo:l.hi] }

// Release mirrors unpinning.
func (l *EchoList) Release() { *l = EchoList{} }

// Slice returns the messages in a freshly allocated slice.
//
//lint:valuecopy Slice returns a freshly allocated slice of by-value copies
func (in Inbox) Slice() []Received {
	out := make([]Received, len(in.msgs))
	copy(out, in.msgs)
	return out
}

// RoundEnv mirrors the round view handed to Process.Step.
type RoundEnv struct {
	Round int
	Inbox Inbox

	out []string
}

// Broadcast mirrors the real queueing method: it appends to the env's
// own outbox, which must NOT count as retention of the env — the
// summary pass's self-store exemption (storing a value derived from a
// parameter back into that same parameter retains nothing new).
func (env *RoundEnv) Broadcast(p string) { env.out = append(env.out, p) }

// Send mirrors the real unicast method.
func (env *RoundEnv) Send(to int, p string) { env.out = append(env.out, p) }
