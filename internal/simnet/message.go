// Package simnet is the synchronous message-passing substrate of the
// reproduction: a lock-step round simulator implementing exactly the
// communication model of the paper.
//
// Model rules enforced by the engine:
//
//   - Computation proceeds in rounds. Messages sent in round r are
//     delivered at the start of round r+1.
//   - A process can broadcast to all nodes (including itself and nodes it
//     has never heard of) or unicast to a specific node. For correct
//     processes the engine verifies the paper's contact rule: unicast
//     only to a node that has previously sent the sender a message. A
//     violation aborts the run with ErrContactRule.
//   - The sender identifier on every delivered message is stamped by the
//     engine, so a Byzantine node cannot forge its identifier when
//     communicating directly (it can still lie arbitrarily in message
//     contents).
//   - Duplicate messages from the same node within one round are
//     discarded by the receiver. Filtering is keyed on the canonical wire
//     encoding: the route pass sorts each sender's sends by (encoding,
//     receiver), so every duplicate sits next to the send it repeats.
//   - A delivered message is exactly what was sent. Send takes the
//     payload's bytes, and a receiver gets the engine's decoded copy of
//     them, shared read-only with every other receiver of the same
//     encoding: nothing the sender does to its own value afterwards —
//     rewriting a body slice, say — reaches a receiver.
//
// A FaultPlan (Config.FaultPlan, fault.go) stays inside these rules: it
// cuts links, drops deliveries, crashes and revives nodes and changes
// quotas, but never alters, duplicates or reorders a delivered message.
//
// # Fault containment
//
// The engine is a graceful-degradation layer: misbehavior of one
// process must not take down the run.
//
//   - A panic inside Process.Step is recovered and the node converted
//     into a deterministic crash fault: its crashing round produces no
//     sends, it is never stepped again, and it receives no further
//     messages. The transcript records a trace.KindNodeCrashed event;
//     Network.Crashes carries the panic values for debugging. Recovery
//     happens inside the per-node step task, before the node-order
//     merge, so transcripts stay byte-identical across worker counts.
//   - Config.SendQuota bounds how many sends one node can queue per
//     round. The drop policy is deterministic (the first SendQuota
//     sends in queue order survive) and recorded as a
//     trace.KindQuotaDrop event — the valve that contains Byzantine
//     amplification floods.
//   - Config.Observer receives each round's record at the round
//     boundary, the feed for the online safety oracles in
//     internal/oracle; its message events only if it reads them.
//
// # One round loop, one round record
//
// There is one way to run a round: step every node, then merge, route,
// deliver and observe on the goroutine driving the network. The step
// phase is the round's one parallel region — an indexed batch, step
// node i, dispatched on the shared bounded scheduler
// (internal/simnet/sched) — parameterized by a single knob:
// Config.Workers, how many goroutines step nodes. At the default (below
// 2) the dispatch is an inline loop on the driving goroutine with no
// coordination at all; at k, up to k shared workers step the nodes.
// Every value produces a byte-identical execution, which the test suite
// asserts. The determinism argument: (1) a step task writes only its
// own node's state and result slot, and the merge reads the slots in
// node order, so the routed send stream is independent of worker
// scheduling; (2) everything after the merge — sort, dedup, arena
// sizing, the round record, noting each receiver's inbox, the tallies —
// is one serial pass that no worker takes part in; (3) the one thing step
// tasks share beyond read-only storage, the payload-major index of the
// broadcast block (Inbox.Said, Inbox.Broadcasters), is built on demand
// by whichever task asks first, but it is a pure function of the block
// the route pass finished before any Step ran, so which task builds it
// — or whether any does — shows in nothing a process reads.
//
// There is likewise one record of a round, and it mirrors what the
// round stores: one event buffer whose producers all run serially, in
// the canonical order — fault-plan events, containment events (step
// merge), link-fault events (route filter), then one message
// event per stored message: each broadcast of the shared block once,
// To == 0 meaning "delivered to every receiver live this round", then
// each unicast-arena entry once, in receiver order. On a link-fault round
// a block broadcast's To == 0 means every receiver that read its block —
// the live receivers of its sender's partition group that no drop rule
// names — and the broadcast copies delivered over the links a rule
// scopes are arena entries, one per link that kept its copy. That is
// O(B + U) events, built only for a
// Config.Observer that reads them: an observer that implements
// MessageReader and answers false — an oracle suite whose oracles read
// only engine events and the round's accounting, such as every public
// run's — gets the engine events alone, and the route pass builds no
// message event. The delivery pass is the same observed or not. Who
// received what is not in the record: Config.EventLog, the one
// per-delivery consumer, gets the engine events followed by every
// receiver's next-round inbox read back through Inbox.All.
//
// # Sparse delivery and the buffer-recycling contract
//
// A broadcast is stored once per round, not once per receiver: the
// route pass materializes the round's surviving broadcasts into one
// shared broadcast block and each receiver's unicasts into a private
// segment of one unicast arena, so per-round storage is O(B + U)
// (B = surviving broadcasts, U = unicast deliveries) instead of the
// n·B of a fully materialized fan-out. Each inbox is an Inbox view —
// a lazy merge of the shared block with the receiver's segment — and
// the merge order reproduces the documented (sender, encoding) order
// exactly, so transcripts and dedup semantics are independent of the
// storage strategy.
//
// The shared block has a second, payload-major reading for the question
// every threshold of the paper asks — which distinct nodes sent me m:
// Inbox.Broadcasters (the block's distinct senders, ascending) and
// Inbox.Said (one entry per distinct payload, ascending by encoding,
// with the set of broadcaster positions that sent it), beside
// Inbox.Direct, the receiver's private segment. Said × Broadcasters plus
// Direct cover exactly the messages All yields. The index behind the
// first two is built at most once per round, on first request, in
// recycled scratch (index.go); a round nobody asks never builds it.
//
// The engine recycles those round-scoped buffers aggressively: the
// RoundEnv passed to Process.Step, the broadcast block and unicast
// arena its Inbox view reads through, the block's index, and the
// internal send buffers are all rewritten on the next round.
// Process.Step therefore MUST NOT retain env, env.Inbox, an iterator
// obtained from env.Inbox.All(), or the slices env.Inbox.Said(),
// Broadcasters() and Direct() return — nor a Said element or its By
// set, a row of the index's recycled slab — past the call. Copy
// individual Received values out (a range over env.Inbox.All() or
// Direct()) if state must survive the round; the values themselves
// (sender id, payload, encoding) are safe to keep, as is a Said's
// Payload. The contract is checked at run time: internal/spec's
// retention check walks every node of every spec differential after
// each Step and fails the test if the node reaches any of that memory
// (DESIGN.md §8.1).
//
// A send costs no heap memory: Send appends the encoding to the node's
// byte buffer and queues a pointer-free record of where it lies; the
// step merge interns every record's encoding, decoding each distinct
// one once, and ranks the round's distinct encodings by bytes
// (intern.go); and the route pass sorts, dedups and materializes on
// those ranks. The node buffers and the table are network scratch,
// recycled like the rest.
package simnet

import (
	"cmp"
	"iter"
	"slices"
	"strings"

	"uba/internal/ids"
	"uba/internal/wire"
)

// Received is one delivered message: the payload plus the authenticated
// sender identifier stamped by the network.
type Received struct {
	// From is the true sender, attached by the engine (unforgeable).
	From ids.ID
	// Payload is the decoded message body: the engine's copy, decoded
	// from the bytes the sender sent, and shared by every receiver of
	// the same encoding. It must be treated as read-only; nothing the
	// sender does after sending changes it.
	Payload wire.Payload
	// encoded is the canonical encoding, retained for deterministic
	// ordering and duplicate filtering.
	encoded string
	// bcast marks a delivery that was part of a broadcast fan-out. It
	// is carried on the value (not derived from which arena holds it)
	// because a link-fault round delivers the broadcasts of the links a
	// drop rule scopes as per-receiver arena entries; the transcript's
	// Broadcast flag must survive that.
	bcast bool
}

// Size returns the encoded size of the message in bytes.
func (m Received) Size() int { return len(m.encoded) }

// send is a queued outbound message: who sent it to whom (to ==
// ids.None means broadcast), how many bytes its canonical encoding has,
// and at, where the encoding is: its offset in the sender's byte buffer
// until the step merge, and from then on its rank among the round's
// distinct encodings in the intern table (intern.go), which orders as
// the encoding does. It holds no pointer, so moving one costs a copy of
// 24 bytes and no write barrier.
type send struct {
	from ids.ID
	to   ids.ID
	at   uint32
	n    uint32
}

// Inbox is a read-only view of the messages delivered to one receiver
// at the start of a round: a lazy merge of the round's shared broadcast
// block with the receiver's private unicast segment. The merged order
// is by sender id and then by canonical encoding (deterministic for
// every worker count), and duplicates from the same sender have already been
// discarded — identical to the fully materialized inboxes it replaced,
// without the O(n·B) copies.
//
// An Inbox (and any iterator from All) is valid only until the Step
// call it was delivered to returns: the engine rewrites the backing
// block and arena when routing the next round (see the package docs).
// Individual Received values read through All are plain copies and
// safe to keep.
type Inbox struct {
	// bcast is the round's shared broadcast block (every surviving
	// broadcast, in ascending send order; on a partitioned round those
	// of the receiver's group), shared by all its readers; bkeys holds
	// the aligned global send indices the merge runs on.
	bcast []Received
	bkeys []int32
	// uni is this receiver's private unicast segment (ascending send
	// order); ukeys holds its aligned global send indices. Either side
	// may be empty, in which case its keys may be nil.
	uni   []Received
	ukeys []int32
	// idx is the payload-major index of bcast, shared like the block
	// and built on first request (see index.go). Nil when bcast is
	// empty by construction (InboxOf, the zero Inbox).
	idx *blockIndex
}

// InboxOf returns an Inbox delivering exactly msgs in the given order —
// the constructor for tests and harnesses that drive a Process manually.
// Everything is in the private segment (Direct), as for a node a
// link-fault round's drop rule names; InboxOfRound builds an inbox with
// a shared block.
func InboxOf(msgs ...Received) Inbox {
	return Inbox{uni: msgs}
}

// InboxOfRound returns the Inbox a receiver gets from a healthy round in
// which broadcasts were broadcast and direct were unicast to it: the
// broadcasts in a shared block with its own payload-major index, the
// whole in engine order — by sender, then by canonical encoding, a
// (sender, encoding) pair delivered once. It is InboxOf's sibling for
// tests that drive the Said/Broadcasters path without a Network.
func InboxOfRound(broadcasts, direct []Received) Inbox {
	all := make([]Received, 0, len(broadcasts)+len(direct))
	for _, m := range broadcasts {
		m.bcast = true
		all = append(all, m)
	}
	for _, m := range direct {
		m.bcast = false
		all = append(all, m)
	}
	for i := range all {
		all[i].encoded = string(wire.Encode(all[i].Payload))
	}
	// Stable, with the broadcasts first: on a tie the unicast is the
	// dropped duplicate — the engine's rule.
	slices.SortStableFunc(all, func(a, b Received) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return strings.Compare(a.encoded, b.encoded)
	})
	var in Inbox
	for i, m := range all {
		if i > 0 && all[i-1].From == m.From && all[i-1].encoded == m.encoded {
			continue
		}
		if m.bcast {
			in.bcast, in.bkeys = append(in.bcast, m), append(in.bkeys, int32(i))
		} else {
			in.uni, in.ukeys = append(in.uni, m), append(in.ukeys, int32(i))
		}
	}
	// The block's ranks, as the step merge would number them.
	encs := make([]string, len(in.bcast))
	for i := range in.bcast {
		encs[i] = in.bcast[i].encoded
	}
	slices.Sort(encs)
	encs = slices.Compact(encs)
	ranks := make([]uint32, len(in.bcast))
	for i := range in.bcast {
		r, _ := slices.BinarySearch(encs, in.bcast[i].encoded)
		ranks[i] = uint32(r)
	}
	in.idx = new(blockIndex)
	in.idx.reset(in.bcast, ranks, len(encs))
	return in
}

// Len returns the number of delivered messages.
func (in *Inbox) Len() int { return len(in.bcast) + len(in.uni) }

// All returns an iterator over the delivered messages in inbox order —
// the replacement for ranging over the old materialized slice:
//
//	for m := range env.Inbox.All() { ... }
//
// The iterator reads through the engine's recycled buffers and must not
// be retained past the Step call (the Received values it yields are
// safe to keep).
func (in Inbox) All() iter.Seq[Received] {
	return func(yield func(Received) bool) {
		bi, nb := 0, len(in.bcast)
		ui, nu := 0, len(in.uni)
		for bi < nb || ui < nu {
			var m Received
			if ui >= nu || (bi < nb && in.bkeys[bi] < in.ukeys[ui]) {
				m = in.bcast[bi]
				bi++
			} else {
				m = in.uni[ui]
				ui++
			}
			if !yield(m) {
				return
			}
		}
	}
}

// RoundEnv is the view a process gets of one round: the messages delivered
// at the start of the round, and the ability to queue messages for
// delivery in the next round. A RoundEnv is valid only for the duration of
// the Step call it is passed to; the engine reuses both the env and the
// buffers behind its Inbox view on later rounds (see the package docs),
// so neither may be retained.
type RoundEnv struct {
	// Round is the 1-based global round number.
	Round int
	// Inbox is the view of the messages delivered this round, sorted by
	// sender id and then by canonical encoding (deterministic for every
	// worker count). Duplicates from the same sender have been discarded.
	Inbox Inbox

	self  ids.ID
	sends []send
	// enc is the node's byte buffer: the encodings of sends, back to
	// back. Send copies a payload's bytes here, so nothing the sender
	// does to the payload afterwards reaches a receiver.
	enc []byte
}

// Broadcast queues a message to every node in the system (including the
// sender itself), matching the paper's broadcast primitive.
func (env *RoundEnv) Broadcast(p wire.Payload) { env.Send(ids.None, p) }

// SendCount returns how many messages have been queued on this env so
// far (test instrumentation for driving a Process manually).
func (env *RoundEnv) SendCount() int { return len(env.sends) }

// Sent returns the payloads queued on this env so far, in queue order,
// each decoded from the bytes Send took (test instrumentation for driving
// a Process manually, like SendCount).
func (env *RoundEnv) Sent() []wire.Payload {
	out := make([]wire.Payload, len(env.sends))
	for i, s := range env.sends {
		out[i] = mustDecode(env.enc[s.at : s.at+s.n])
	}
	return out
}

// Send queues a point-to-point message to a specific node. It encodes p
// into the node's byte buffer and queues a pointer-free record of where
// the bytes lie; both buffers keep their capacity across rounds and,
// through the scratch pool, across networks. p does not escape, so a
// caller passing a payload value boxes it on its own stack.
func (env *RoundEnv) Send(to ids.ID, p wire.Payload) {
	off := len(env.enc)
	env.enc = wire.AppendEncode(env.enc, p)
	env.sends = append(env.sends, send{from: env.self, to: to, at: uint32(off), n: uint32(len(env.enc) - off)})
}

// Process is a node state machine driven by the network: one Step call per
// round. Implementations must be self-contained (no shared mutable state
// with other processes) so that a worker cap above 1 can step them
// in parallel, and must not retain env or env.Inbox past the Step call
// (the engine recycles both; see the package docs). Isolation is held at
// run time by CI's "Process isolation gate", which runs the module
// root's TestRunnerEquivalenceAcrossAdversaries under -race: it steps
// every family's nodes on several goroutines. Retention is held at run
// time by internal/spec's retention check, which every spec
// differential makes after each Step (DESIGN.md §8.1).
type Process interface {
	// ID returns the node's unique identifier.
	ID() ids.ID
	// Step executes one round: read env.Inbox, update local state, queue
	// sends on env.
	Step(env *RoundEnv)
	// Done reports whether the process has terminated. Terminated
	// processes are no longer stepped and no longer receive messages,
	// matching a node that has halted. Done is final: once it reports
	// true it must keep doing so. The engine relies on this — it stops
	// tracking a terminated node's contacts.
	Done() bool
}
