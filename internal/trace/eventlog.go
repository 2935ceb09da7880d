package trace

import (
	"fmt"
	"io"
	"sync"
)

// Event is one entry in a recorded transcript. Most events are message
// deliveries; the engine also records fault-containment events (see
// KindNodeCrashed and KindQuotaDrop), which carry a node in From and
// leave To zero.
type Event struct {
	// Round is the round the message was delivered in (i.e. it was
	// sent in Round-1). For containment events it is the round the
	// fault was contained in.
	Round int
	// From and To are the sender and receiver ids. A transcript names
	// the receiver of every delivery; in the round record handed to a
	// simnet.RoundObserver a message event with To == 0 is a broadcast
	// stored once and delivered to every receiver live that round.
	From, To uint64
	// Kind is the payload kind name, or one of the engine event kinds
	// (KindNodeCrashed, KindQuotaDrop).
	Kind string
	// Size is the encoded payload size in bytes. For KindQuotaDrop it
	// is the number of dropped send operations.
	Size int
	// Broadcast marks deliveries that were part of a broadcast fan-out.
	Broadcast bool
	// Enc is the canonical wire encoding of the delivered payload,
	// shared with the engine's send buffers (a string header, not a
	// copy). It lets online monitors (internal/oracle) decode message
	// contents without re-capturing traffic. Empty for most engine
	// events; fault-plan events may carry a short textual detail here
	// (partition group membership, new quota values).
	Enc string
}

// Engine event kinds recorded by the fault-containment layer and the
// fault-plan scheduler, reserved names that no wire payload uses (see
// wire.Kind.String). A fault plan only removes deliveries, so every
// message event in a transcript carries the encoding its sender sent.
const (
	// KindNodeCrashed records that a node's Step panicked and the
	// engine converted it into a crash fault — or that a fault plan
	// crashed it on schedule: the node is silent and receives nothing
	// until (plan crashes only) a recover event revives it.
	KindNodeCrashed = "node-crashed"
	// KindQuotaDrop records that a node exceeded its per-round send
	// quota; Size carries the number of dropped sends.
	KindQuotaDrop = "quota-drop"
	// KindPartition records one group of a fault-plan partition taking
	// effect: From is the group index, Size the group population, and
	// Enc the comma-joined member ids. One event per group; nodes in no
	// group are isolated.
	KindPartition = "partition"
	// KindHeal records a fault-plan partition healing: full
	// connectivity is restored from this round on.
	KindHeal = "heal"
	// KindLinkDrop records one message removed from the send stream by
	// a fault-plan drop rule; Size is the encoded size of the lost
	// message. Rule activations also use this kind, with Enc carrying
	// "rate=…" (a dropped message's Enc is empty).
	KindLinkDrop = "link-drop"
	// KindNodeRecovered records a fault plan reviving a plan-crashed
	// node; it resumes stepping with an empty inbox.
	KindNodeRecovered = "node-recovered"
	// KindQuotaChange records a fault plan overwriting the per-round
	// send quota; Size is the new quota and Enc carries it as "send=…".
	KindQuotaChange = "quota-change"
)

// EventLog records a message-level transcript of a run — the debugging
// view of an execution: who delivered what to whom, round by round. The
// round engine appends each finished round through RecordBatch, from
// the goroutine driving the network — workers never record;
// the lock only makes the readers safe to call from another goroutine
// while a run is in flight. A capacity bound keeps adversarial message
// floods from exhausting memory; when it is hit, further events are
// counted but not stored.
type EventLog struct {
	mu      sync.Mutex
	events  []Event
	cap     int
	dropped int
}

// NewEventLog returns a transcript recorder holding at most capacity
// events (0 means DefaultEventCapacity).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{cap: capacity}
}

// DefaultEventCapacity bounds a transcript when no capacity is given.
const DefaultEventCapacity = 100_000

// RecordBatch appends a batch of events under one lock acquisition —
// the flush path for the round engine's transcript (the round's engine
// events, then its deliveries). Events beyond the capacity are counted
// as dropped, not stored. The batch is copied; the caller may reuse its
// slice.
func (l *EventLog) RecordBatch(events []Event) {
	if len(events) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	room := l.cap - len(l.events)
	if room <= 0 {
		l.dropped += len(events)
		return
	}
	if room < len(events) {
		l.dropped += len(events) - room
		events = events[:room]
	}
	l.events = append(l.events, events...)
}

// Events returns a copy of the recorded events in delivery order.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Dropped reports how many events exceeded the capacity.
func (l *EventLog) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Render writes the transcript grouped by round, up to maxRounds rounds
// (0 = all). Broadcast fan-outs are collapsed into one line per
// (round, sender, kind) with a receiver count, which is what a human
// debugging a quorum protocol actually wants to read. A drop rule's
// activation gets its own line; only dropped messages are counted.
func (l *EventLog) Render(w io.Writer, maxRounds int) error {
	// dropRule is the group kind of a drop rule's activation event,
	// which shares KindLinkDrop with the messages the rule drops.
	const dropRule = "drop-rule"
	events := l.Events()
	type groupKey struct {
		round int
		from  uint64
		kind  string
		// to and enc are set for drop-rule activations only.
		to  uint64
		enc string
	}
	type group struct {
		key       groupKey
		receivers int
		bytes     int
		broadcast bool
		firstTo   uint64
	}
	var order []groupKey
	groups := make(map[groupKey]*group)
	for _, e := range events {
		if maxRounds > 0 && e.Round > maxRounds {
			break
		}
		k := groupKey{round: e.Round, from: e.From, kind: e.Kind}
		if e.Kind == KindLinkDrop && e.Enc != "" {
			k.kind, k.to, k.enc = dropRule, e.To, e.Enc
		}
		g, ok := groups[k]
		if !ok {
			g = &group{key: k, firstTo: e.To, broadcast: e.Broadcast}
			groups[k] = g
			order = append(order, k)
		}
		g.receivers++
		g.bytes += e.Size
	}
	currentRound := -1
	for _, k := range order {
		g := groups[k]
		if k.round != currentRound {
			currentRound = k.round
			if _, err := fmt.Fprintf(w, "--- round %d ---\n", currentRound); err != nil {
				return err
			}
		}
		switch k.kind {
		case KindNodeCrashed:
			if _, err := fmt.Fprintf(w, "  %d !! crashed (Step panic contained)\n", k.from); err != nil {
				return err
			}
			continue
		case KindQuotaDrop:
			if _, err := fmt.Fprintf(w, "  %d !! quota exceeded (%d sends dropped)\n", k.from, g.bytes); err != nil {
				return err
			}
			continue
		case KindPartition:
			if _, err := fmt.Fprintf(w, "  !! partition group %d (%d nodes)\n", k.from, g.bytes); err != nil {
				return err
			}
			continue
		case KindHeal:
			if _, err := fmt.Fprintln(w, "  !! partition healed"); err != nil {
				return err
			}
			continue
		case dropRule:
			if _, err := fmt.Fprintf(w, "  !! drop rule from=%d to=%d %s\n", k.from, k.to, k.enc); err != nil {
				return err
			}
			continue
		case KindLinkDrop:
			if _, err := fmt.Fprintf(w, "  %d ~x~ %-18s x%d %dB\n", k.from, k.kind, g.receivers, g.bytes); err != nil {
				return err
			}
			continue
		case KindNodeRecovered:
			if _, err := fmt.Fprintf(w, "  %d !! recovered\n", k.from); err != nil {
				return err
			}
			continue
		case KindQuotaChange:
			if _, err := fmt.Fprintf(w, "  !! quota change (send=%d)\n", g.bytes); err != nil {
				return err
			}
			continue
		}
		if g.broadcast || g.receivers > 1 {
			if _, err := fmt.Fprintf(w, "  %d =>(all:%d) %-18s %dB\n",
				k.from, g.receivers, k.kind, g.bytes); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "  %d -> %d %-18s %dB\n",
			k.from, g.firstTo, k.kind, g.bytes); err != nil {
			return err
		}
	}
	if d := l.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(+%d events beyond capacity)\n", d); err != nil {
			return err
		}
	}
	return nil
}
