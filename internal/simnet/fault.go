package simnet

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"uba/internal/ids"
	"uba/internal/trace"
)

// This file is the round-scheduled fault-injection layer: a FaultPlan on
// Config schedules partitions, per-link loss, crash/recover churn and
// quota changes — all deterministic functions of (plan, round, send
// index, receiver), so a faulty execution replays bit-exactly for every
// worker count.
//
// Determinism argument. Plan events apply at the start of RunRound, on
// the driving goroutine, in (round, plan order) — before any worker
// runs. Link-level faults apply inside the serial route pass as a
// filter over the classified send stream, walked in global send-index
// order (broadcasts fanned per live receiver in node order), and every
// drop decision is a stateless hash of (plan seed, round, send index,
// receiver) — no shared PRNG stream, so dropping one fault event from a
// plan cannot shift the rolls of the remaining ones (what makes
// shrinking sound). Fault trace events are appended to the round record
// (n.roundEvents) during these serial passes, which fixes their position
// in it: plan events, containment events, link events, deliveries.
//
// Zero cost when nil. Every hook is behind one `n.faults != nil` check;
// with a nil plan the round executes the exact zero-alloc hot path
// (the zero-alloc gates hold, route rows stay 0 allocs/op). With a plan
// attached but no partition or drop rule live, the filter does not run
// either: the only added work is a handful of nil/flag checks.
//
// Model note. Every kind stays inside the paper's model, where links are
// synchronous and reliable and only a Byzantine node lies about content:
// a plan removes deliveries (a cut, a drop, a crashed node, a quota) and
// never alters, duplicates or reorders one. Correct nodes join a running
// system through Algorithm 6, with Network.Add between rounds, not
// through a plan. On a round with a live partition or drop rule the
// surviving broadcasts are demoted to per-receiver arena entries (the
// shared broadcast block cannot express per-receiver loss). The demoted
// entries are appended in global send-index order, so inbox order — and
// therefore the transcript — is unchanged; Received.bcast preserves the
// Broadcast flag.

// Fault event kinds, stable strings because they appear in plan JSON.
const (
	// FaultPartition splits the network into Groups: messages cross
	// group boundaries only from a node to itself. Nodes in no group
	// are isolated. A later partition replaces the current one.
	FaultPartition = "partition"
	// FaultHeal removes the current partition.
	FaultHeal = "heal"
	// FaultDrop activates a link loss rule: each matching delivery is
	// independently dropped with probability Rate.
	FaultDrop = "drop"
	// FaultCrash fail-stops Node at Round: it is silent and unreachable
	// until a later recover event.
	FaultCrash = "crash"
	// FaultRecover revives a crashed Node with an empty inbox.
	FaultRecover = "recover"
	// FaultQuota overwrites the per-round send quota at Round (0
	// disables it, as in Config).
	FaultQuota = "quota"
)

// FaultEvent is one timed entry of a FaultPlan. Round is the 1-based
// round the event takes effect at (before that round's Step calls).
// Which other fields matter depends on Kind; unused fields are ignored.
type FaultEvent struct {
	Round int    `json:"round"`
	Kind  string `json:"kind"`
	// Groups names the partition's node groups (FaultPartition).
	// Ids unknown to the network are tolerated — they simply match no
	// node — so a shrunk scenario with fewer nodes stays replayable.
	Groups [][]uint64 `json:"groups,omitempty"`
	// Node scopes crash/recover events, and drop rules to links with
	// this node as either endpoint.
	Node uint64 `json:"node,omitempty"`
	// From and To scope drop rules to a sender and/or receiver.
	From uint64 `json:"from,omitempty"`
	To   uint64 `json:"to,omitempty"`
	// Rate is the per-delivery probability of a drop rule, in [0, 1]. A
	// later rule with the same scope overrides an earlier one; Rate 0
	// clears it.
	Rate float64 `json:"rate,omitempty"`
	// SendQuota is the new send quota for FaultQuota events.
	SendQuota int `json:"send_quota,omitempty"`
}

// FaultPlan is a deterministic, round-scheduled fault schedule for one
// run. It is serializable (chaos repro files embed it) and immutable
// once handed to New: the same plan against the same processes yields
// byte-identical transcripts for every worker count and every job count.
type FaultPlan struct {
	// Seed drives every probabilistic fault decision through a
	// stateless hash — there is no PRNG stream to perturb, so plans
	// shrink soundly (removing one event never re-rolls another).
	Seed int64 `json:"seed"`
	// Events apply in (Round, listed order). Events for a round apply
	// before that round's Step calls.
	Events []FaultEvent `json:"events,omitempty"`
}

// Validate checks the plan's structural invariants: known kinds,
// positive rounds, rates within [0, 1], nodes named where required.
func (p *FaultPlan) Validate() error {
	for i := range p.Events {
		e := &p.Events[i]
		if e.Round < 1 {
			return fmt.Errorf("fault event %d (%s): round %d < 1", i, e.Kind, e.Round)
		}
		switch e.Kind {
		case FaultPartition:
			if len(e.Groups) == 0 {
				return fmt.Errorf("fault event %d: partition with no groups", i)
			}
		case FaultHeal:
		case FaultDrop:
			if !(e.Rate >= 0 && e.Rate <= 1) { // NaN fails both compares
				return fmt.Errorf("fault event %d (%s): rate %v outside [0,1]", i, e.Kind, e.Rate)
			}
		case FaultCrash, FaultRecover:
			if e.Node == 0 {
				return fmt.Errorf("fault event %d (%s): node must be nonzero", i, e.Kind)
			}
		case FaultQuota:
			if e.SendQuota < 0 {
				return fmt.Errorf("fault event %d: negative quota", i)
			}
		default:
			return fmt.Errorf("fault event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// Clone returns a deep copy (the shrinker edits candidate plans without
// disturbing the original).
func (p *FaultPlan) Clone() *FaultPlan {
	if p == nil {
		return nil
	}
	out := &FaultPlan{Seed: p.Seed, Events: slices.Clone(p.Events)}
	for i := range out.Events {
		groups := out.Events[i].Groups
		if groups == nil {
			continue
		}
		groups = slices.Clone(groups)
		for g := range groups {
			groups[g] = slices.Clone(groups[g])
		}
		out.Events[i].Groups = groups
	}
	return out
}

// faultState is the compiled runtime form of a FaultPlan: the
// round-sorted event cursor, the live partition and drop rules, and the
// round-scoped scratch the injection passes write into. It is owned by
// one Network and dies with it (not pooled: fault runs are off the
// fault-free hot path).
type faultState struct {
	events []FaultEvent // sorted by round, stable
	next   int
	seed   uint64

	// groups is the live partition's node groups (nil = healed): a node
	// listed in none is isolated (see resolveLinks).
	groups [][]uint64
	// rules are the active drop rules in activation order; for a given
	// link the last matching rule wins.
	rules []FaultEvent
	// linkLive reports whether the route filter must run this round.
	linkLive bool

	// Round-scoped scratch.
	fRecv []int32 // filtered unicast receiver indices
	fSend []int32 // filtered unicast send keys
	// What the filter resolves once per pass, by live index: the node's
	// partition group (-1: in none, isolated) and whether a live drop
	// rule names it; and whether such a rule names nobody, and so scopes
	// every link.
	group    []int32
	named    []bool
	unscoped bool
}

// newFaultState compiles a validated plan.
func newFaultState(p *FaultPlan) *faultState {
	fs := &faultState{
		events: slices.Clone(p.Events),
		seed:   mix64(uint64(p.Seed) ^ 0x5fa91c3d62b07e44),
	}
	slices.SortStableFunc(fs.events, func(a, b FaultEvent) int {
		return cmp.Compare(a.Round, b.Round)
	})
	return fs
}

// saltDrop keys the drop rolls' hash stream. Every recorded plan's
// outcome depends on its value: changing it re-rolls every drop.
const saltDrop uint64 = 1

// mix64 is the 64-bit finalizer (splitmix64 variant) behind every fault
// roll: statistically well-mixed, allocation-free, and stateless.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hit decides one drop: true with probability rate, deterministically
// in the decision's coordinates — a stateless hash of them, one call per
// decision. Rates are quantized to 2^-32 (indistinguishable at any
// feasible trial count).
func (fs *faultState) hit(a, b, c uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fs.seed ^ saltDrop*0x9e3779b97f4a7c15
	h = mix64(h + a)
	h = mix64(h + b*0xbf58476d1ce4e5b9)
	h = mix64(h + c*0x94d049bb133111eb)
	return h>>32 < uint64(rate*4294967296.0)
}

// rateFor returns the effective drop rate on the link from -> to: the
// last activated matching rule wins, 0 means inactive. Rule sets are
// tiny (a plan has a handful of events), so a linear scan beats any
// index.
func (fs *faultState) rateFor(from, to ids.ID) float64 {
	rate := 0.0
	for i := range fs.rules {
		r := &fs.rules[i]
		if r.From != 0 && ids.ID(r.From) != from {
			continue
		}
		if r.To != 0 && ids.ID(r.To) != to {
			continue
		}
		if r.Node != 0 && ids.ID(r.Node) != from && ids.ID(r.Node) != to {
			continue
		}
		rate = r.Rate
	}
	return rate
}

// applyFaultEvents applies every plan event scheduled for the current
// round (called at the start of RunRound, before stepping, on the
// driving goroutine) and refreshes the filter-live flag. Trace events
// are appended to the freshly reset round record in plan order — the
// head of the round's canonical event order.
func (n *Network) applyFaultEvents() {
	fs := n.faults
	for fs.next < len(fs.events) && fs.events[fs.next].Round <= n.round {
		e := &fs.events[fs.next]
		fs.next++
		n.applyFaultEvent(e)
	}
	fs.linkLive = fs.groups != nil || len(fs.rules) > 0
}

// applyFaultEvent applies one plan event and records its trace events.
func (n *Network) applyFaultEvent(e *FaultEvent) {
	fs := n.faults
	switch e.Kind {
	case FaultPartition:
		fs.groups = e.Groups
		for gi, group := range e.Groups {
			var b strings.Builder
			for j, raw := range group {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatUint(raw, 10))
			}
			n.roundEvents = append(n.roundEvents, trace.Event{
				Round: n.round, From: uint64(gi), Kind: trace.KindPartition,
				Size: len(group), Enc: b.String(),
			})
		}
	case FaultHeal:
		fs.groups = nil
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, Kind: trace.KindHeal,
		})
	case FaultDrop:
		fs.rules = append(fs.rules, *e)
		from := e.From
		if from == 0 {
			from = e.Node
		}
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, From: from, To: e.To, Kind: trace.KindLinkDrop,
			Enc: "rate=" + strconv.FormatFloat(e.Rate, 'g', -1, 64),
		})
	case FaultCrash:
		st := n.state(ids.ID(e.Node))
		if st == nil || st.crashed {
			return
		}
		n.crash(st)
		n.crashes = append(n.crashes, CrashRecord{
			Node: st.id, Round: n.round, Reason: "fault plan crash",
		})
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, From: e.Node, Kind: trace.KindNodeCrashed,
		})
	case FaultRecover:
		st := n.state(ids.ID(e.Node))
		if st == nil || !st.crashed {
			return
		}
		st.crashed = false
		st.since = n.round // this round's route delivers to it again
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, From: e.Node, Kind: trace.KindNodeRecovered,
		})
	case FaultQuota:
		n.cfg.SendQuota = e.SendQuota
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, Kind: trace.KindQuotaChange, Size: e.SendQuota,
			Enc: "send=" + strconv.Itoa(e.SendQuota),
		})
	}
}

// faultFilter rewrites the classified send stream under the live
// partition and drop rules. It runs inside the serial route pass
// — after dedup/classify, before bucketing — and only on rounds with a
// live link fault. The filtered stream is expressed entirely as unicast
// entries (broadcasts are demoted, fanned per live receiver in node
// order) appended in global send-index order, so the per-receiver
// bucket order — and therefore every inbox and the transcript — matches
// the unfiltered merge order exactly.
func (n *Network) faultFilter(outs []send) {
	fs := n.faults
	fs.fRecv = fs.fRecv[:0]
	fs.fSend = fs.fSend[:0]
	n.resolveLinks()
	nl := len(n.live)
	bi, ui := 0, 0
	nb, nu := len(n.bcastIdx), len(n.uniSend)
	for bi < nb || ui < nu {
		if ui >= nu || (bi < nb && n.bcastIdx[bi] < n.uniSend[ui]) {
			k := n.bcastIdx[bi]
			bi++
			f := n.senderIndex(&outs[k])
			for r := 0; r < nl; r++ {
				if n.doneMask[r] {
					continue
				}
				n.filterLink(outs, k, f, int32(r))
			}
		} else {
			k := n.uniSend[ui]
			r := n.uniRecv[ui]
			ui++
			n.filterLink(outs, k, n.senderIndex(&outs[k]), r)
		}
	}
	// Install the filtered stream: all demoted to unicast entries.
	n.bcastIdx = n.bcastIdx[:0]
	n.uniRecv = append(n.uniRecv[:0], fs.fRecv...)
	n.uniSend = append(n.uniSend[:0], fs.fSend...)
}

// resolveLinks fills the filter's per-node tables for this pass from the
// live partition and drop rules. An id listed in two groups belongs to
// the later one, and an id the network does not hold matches no node.
func (n *Network) resolveLinks() {
	fs := n.faults
	fs.group = grown(fs.group, len(n.live))
	fs.named = grown(fs.named, len(n.live))
	clear(fs.named)
	for i := range fs.group {
		fs.group[i] = -1
	}
	for gi, group := range fs.groups {
		for _, id := range group {
			if j, ok := slices.BinarySearch(n.order, ids.ID(id)); ok {
				fs.group[j] = int32(gi)
			}
		}
	}
	fs.unscoped = false
	for i := range fs.rules {
		r := &fs.rules[i]
		if r.From == 0 && r.To == 0 && r.Node == 0 {
			fs.unscoped = true
		}
		for _, id := range [...]uint64{r.From, r.To, r.Node} { // 0, no scope, is nobody's id
			if j, ok := slices.BinarySearch(n.order, ids.ID(id)); ok {
				fs.named[j] = true
			}
		}
	}
}

// senderIndex returns the live index of s's sender: the step merge stamps
// every send with the id of the live process that made it.
func (n *Network) senderIndex(s *send) int32 {
	f, _ := slices.BinarySearch(n.order, s.from)
	return int32(f)
}

// filterLink applies the live link faults to one (send, receiver) pair —
// f and r the live indices of its sender and receiver — and appends the
// entry to the filtered stream unless a partition cuts the link or a drop
// rule hits it. A link no live rule can match, because no rule names
// either endpoint and none names nobody, survives without a rule lookup or
// a roll: every roll is a stateless hash of its own coordinates, so
// skipping those that cannot hit moves none.
func (n *Network) filterLink(outs []send, k, f, r int32) {
	fs := n.faults
	s := &outs[k]
	to := n.live[r].id
	if fs.groups != nil && s.from != to && (fs.group[f] < 0 || fs.group[f] != fs.group[r]) {
		return // partition cuts are silent; KindPartition announced them
	}
	if (fs.unscoped || fs.named[f] || fs.named[r]) &&
		fs.hit(uint64(n.round), uint64(k), uint64(to), fs.rateFor(s.from, to)) {
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, From: uint64(s.from), To: uint64(to),
			Kind: trace.KindLinkDrop, Size: int(s.n),
		})
		return
	}
	fs.fRecv = append(fs.fRecv, r)
	fs.fSend = append(fs.fSend, k)
}
