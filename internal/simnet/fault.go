package simnet

import (
	"cmp"
	"fmt"
	"math"
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
// runs. Link-level faults apply inside the serial route pass, as its
// classify scan walks the send stream in global send-index order (a
// broadcast's rolled links in receiver node order), and every drop
// decision is a stateless hash of (plan seed, round, send index,
// receiver) — no shared PRNG stream, so dropping one fault event from a
// plan cannot shift the rolls of the remaining ones (what makes
// shrinking sound). Fault trace events are appended to the round record
// (n.roundEvents) during these serial passes, which fixes their position
// in it: plan events, containment events, link events, deliveries.
//
// Zero cost when nil. Every hook is behind one `n.faults != nil` check;
// with a nil plan the round executes the exact zero-alloc hot path
// (the zero-alloc gates hold, route rows stay 0 allocs/op). With a plan
// attached but no partition or drop rule live, the link layer does not
// run either: the only added work is a handful of nil/flag checks.
//
// Model note. Every kind stays inside the paper's model, where links are
// synchronous and reliable and only a Byzantine node lies about content:
// a plan removes deliveries (a cut, a drop, a crashed node, a quota) and
// never alters, duplicates or reorders one. Correct nodes join a running
// system through Algorithm 6, with Network.Add between rounds, not
// through a plan. A round with a live partition or drop rule keeps the
// shared broadcast block: one block per partition group, each with its
// own index and census table, read by the group's members, so they read
// the same counted views and census merges as on a healthy round. Only
// the links a live drop rule scopes — those whose sender or receiver it
// names, and every link for a rule that names nobody — are rolled one
// by one: a named sender's broadcasts fan out into its receivers'
// private arena segments, and a named receiver reads everything
// privately. A node in no group gets only its own broadcasts, privately.
// The private copies are appended in global send-index order, so inbox
// order — and therefore the transcript — is unchanged; Received.bcast
// preserves their Broadcast flag.

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
// once handed to New — the network reads its events, and the groups of
// its partitions, in place for as long as it runs: the same plan
// against the same processes yields byte-identical transcripts for
// every worker count and every job count.
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

// faultState is the compiled runtime form of a FaultPlan: a round-ordered
// cursor over the plan's events, the live partition and drop rules, and
// the round-scoped scratch the link layer writes into. It is owned by
// one Network and dies with it (not pooled: fault runs are off the
// fault-free hot path).
type faultState struct {
	// events are the plan's own, read in place; order holds their
	// indices in round order (stable).
	events []FaultEvent
	order  []int32
	next   int
	seed   uint64

	// groups is the live partition's node groups (nil = healed): a node
	// listed in none is isolated (see resolveLinks).
	groups [][]uint64
	// rules are the active drop rules in activation order; for a given
	// link the last matching rule wins.
	rules []FaultEvent
	// linkLive reports whether the link layer must run this round.
	linkLive bool
	// encs holds the trace string of every partition group met so far,
	// by the group's slice: a plan that repeats a partition shares its
	// groups, and their ids are formatted once.
	encs []groupEnc

	// What resolveLinks finds once per route pass, by live index: the
	// node's partition group (-1: in none, isolated; 0 for everyone when
	// no partition is live), the block it reads (-1: none), the live
	// rules that name it, latest first, in ruleOf[ruleStart[i]:
	// ruleStart[i+1]], and the drop rates of its links with the nodes no
	// rule names: in from them, out to them. named lists the nodes some
	// rule names, ascending; unscoped the rules that name nobody, latest
	// first, which scope every link. round is the drop hash's prefix for
	// the round.
	group     []int32
	reads     []int32
	ruleStart []int32
	ruleOf    []int32
	in, out   []float64
	named     []int32
	unscoped  []int32
	round     uint64

	// Partitioned-round scratch: the group of each block broadcast,
	// aligned with the classified broadcast list; that list regrouped;
	// and each block's distinct senders, block g's from senderStart[g].
	bgroup      []int32
	regroup     []int32
	senders     []ids.ID
	senderStart []int32
}

// groupEnc is a partition group's trace string, keyed by the group's
// slice.
type groupEnc struct {
	first *uint64
	n     int
	enc   string
}

// newFaultState compiles a validated plan. It keeps the plan's events,
// not a copy: the plan is immutable once handed to New.
func newFaultState(p *FaultPlan) *faultState {
	fs := &faultState{
		events: p.Events,
		order:  make([]int32, len(p.Events)),
		seed:   mix64(uint64(p.Seed) ^ 0x5fa91c3d62b07e44),
	}
	for i := range fs.order {
		fs.order[i] = int32(i)
	}
	slices.SortStableFunc(fs.order, func(a, b int32) int {
		return cmp.Compare(fs.events[a].Round, fs.events[b].Round)
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

// A drop decision is a stateless hash of its coordinates — the round,
// the send index and the receiver — chained through mix64 one
// coordinate at a time, so the round's prefix is taken once per round
// (roundKey), the send's once per send (sendKey), and a link pays one
// mix64 (drops). It is true with probability rate; rates are quantized
// to 2^-32 (indistinguishable at any feasible trial count).

// roundKey is the drop hash's prefix for round.
func (fs *faultState) roundKey(round int) uint64 {
	return mix64((fs.seed ^ saltDrop*0x9e3779b97f4a7c15) + uint64(round))
}

// sendKey is the drop hash's prefix for send index k of this round.
func (fs *faultState) sendKey(k int32) uint64 {
	return mix64(fs.round + uint64(k)*0xbf58476d1ce4e5b9)
}

// drops decides the drop of the link to receiver to of the send whose
// key is key.
func drops(key uint64, to ids.ID, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return mix64(key+uint64(to)*0x94d049bb133111eb)>>32 < uint64(rate*4294967296.0)
}

// matches reports whether drop rule e scopes the link from -> to.
func (e *FaultEvent) matches(from, to ids.ID) bool {
	return (e.From == 0 || ids.ID(e.From) == from) &&
		(e.To == 0 || ids.ID(e.To) == to) &&
		(e.Node == 0 || ids.ID(e.Node) == from || ids.ID(e.Node) == to)
}

// rate returns the drop rate of the link from live index f to live index
// r, whose ids are from and to: that of the latest live rule matching
// it, 0 if none does. Only the rules that name an endpoint or nobody can
// match, so those are all it reads; and a link one of whose endpoints no
// rule names has the rate resolveLinks noted for the other.
func (fs *faultState) rate(f, r int32, from, to ids.ID) float64 {
	switch {
	case fs.ruleStart[f+1] == fs.ruleStart[f]:
		return fs.in[r]
	case fs.ruleStart[r+1] == fs.ruleStart[r]:
		return fs.out[f]
	}
	return fs.walk(f, r, from, to)
}

// walk is rate by the rule lists of both endpoints.
func (fs *faultState) walk(f, r int32, from, to ids.ID) float64 {
	best := fs.latest(fs.ruleOf[fs.ruleStart[f]:fs.ruleStart[f+1]], from, to, -1)
	if r != f {
		best = fs.latest(fs.ruleOf[fs.ruleStart[r]:fs.ruleStart[r+1]], from, to, best)
	}
	best = fs.latest(fs.unscoped, from, to, best)
	if best < 0 {
		return 0
	}
	return fs.rules[best].Rate
}

// latest returns the latest rule of list, which is latest first, that
// matches the link from -> to and is later than best; best if none is.
func (fs *faultState) latest(list []int32, from, to ids.ID, best int32) int32 {
	for _, i := range list {
		if i <= best {
			break
		}
		if fs.rules[i].matches(from, to) {
			return i
		}
	}
	return best
}

// names reports whether a live rule names live index i, or names nobody
// and so scopes every link.
func (fs *faultState) names(i int32) bool {
	return len(fs.unscoped) > 0 || fs.ruleStart[i+1] > fs.ruleStart[i]
}

// joins reports whether the live partition lets live index f reach live
// index r: the same node, or two nodes of one group.
func (fs *faultState) joins(f, r int32) bool {
	return f == r || fs.group[f] >= 0 && fs.group[f] == fs.group[r]
}

// applyFaultEvents applies every plan event scheduled for the current
// round (called at the start of RunRound, before stepping, on the
// driving goroutine) and refreshes the link-live flag. Trace events
// are appended to the freshly reset round record in plan order — the
// head of the round's canonical event order.
func (n *Network) applyFaultEvents() {
	fs := n.faults
	for ; fs.next < len(fs.order); fs.next++ {
		e := &fs.events[fs.order[fs.next]]
		if e.Round > n.round {
			break
		}
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
			n.roundEvents = append(n.roundEvents, trace.Event{
				Round: n.round, From: uint64(gi), Kind: trace.KindPartition,
				Size: len(group), Enc: fs.groupEnc(group),
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

// groupEnc returns group's trace string, its ids comma-separated, built
// the first time the group's slice is met.
func (fs *faultState) groupEnc(group []uint64) string {
	if len(group) == 0 {
		return ""
	}
	for _, c := range fs.encs {
		if c.first == &group[0] && c.n == len(group) {
			return c.enc
		}
	}
	var b strings.Builder
	for j, raw := range group {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(raw, 10))
	}
	fs.encs = append(fs.encs, groupEnc{first: &group[0], n: len(group), enc: b.String()})
	return b.String()
}

// resolveLinks fills the link layer's per-node tables for this route
// pass from the live partition and drop rules, in O(n + rules): an id
// listed in two groups belongs to the later one, and an id the network
// does not hold matches no node. Each node's rule list is filled by
// walking the rules in activation order and laying each in from the
// back of its lists, so every list comes out latest first.
func (n *Network) resolveLinks() {
	fs := n.faults
	nl := len(n.live)
	fs.round = fs.roundKey(n.round)
	fs.bgroup = fs.bgroup[:0]
	fs.group = grown(fs.group, nl)
	if fs.groups == nil {
		clear(fs.group)
	} else {
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
	}
	fs.ruleStart = grown(fs.ruleStart, nl+1)
	clear(fs.ruleStart)
	var buf [3]int32
	for i := range fs.rules {
		for _, j := range n.namedBy(&fs.rules[i], &buf) {
			fs.ruleStart[j]++
		}
	}
	total := int32(0)
	for j := range nl {
		total += fs.ruleStart[j]
		fs.ruleStart[j] = total // the end of j's list, for now
	}
	fs.ruleStart[nl] = total
	fs.ruleOf = grown(fs.ruleOf, int(total))
	fs.unscoped = fs.unscoped[:0]
	for i := range fs.rules {
		r := &fs.rules[i]
		if r.From == 0 && r.To == 0 && r.Node == 0 {
			fs.unscoped = append(fs.unscoped, int32(i))
		}
		for _, j := range n.namedBy(r, &buf) {
			fs.ruleStart[j]--
			fs.ruleOf[fs.ruleStart[j]] = int32(i)
		}
	}
	slices.Reverse(fs.unscoped)
	fs.named = fs.named[:0]
	fs.reads = grown(fs.reads, nl)
	fs.in, fs.out = grown(fs.in, nl), grown(fs.out, nl)
	for j := range nl {
		// The id 0 stands for a node no rule names: no rule's From, To
		// or Node holds it, so a rule matches its links only through a
		// zero field, as it matches every such node's.
		id := n.order[j]
		if fs.ruleStart[j+1] > fs.ruleStart[j] {
			fs.named = append(fs.named, int32(j))
		}
		fs.in[j] = fs.walk(int32(j), int32(j), ids.None, id)
		fs.out[j] = fs.walk(int32(j), int32(j), id, ids.None)
		fs.reads[j] = fs.group[j]
		if fs.names(int32(j)) {
			fs.reads[j] = -1
		}
	}
}

// namedBy returns the live indices drop rule r names, each once, in buf.
func (n *Network) namedBy(r *FaultEvent, buf *[3]int32) []int32 {
	out := buf[:0]
	for _, id := range [...]uint64{r.From, r.To, r.Node} { // 0, no scope, is nobody's id
		if j, ok := slices.BinarySearch(n.order, ids.ID(id)); ok && !slices.Contains(out, int32(j)) {
			out = append(out, int32(j))
		}
	}
	return out
}

// senderIndex returns the live index of s's sender: the step merge stamps
// every send with the id of the live process that made it.
func (n *Network) senderIndex(s *send) int32 {
	f, _ := slices.BinarySearch(n.order, s.from)
	return int32(f)
}

// routeBroadcast classifies broadcast k on a link-fault round. From a
// sender no rule names it joins its group's block, and only the links to
// the group's named receivers are rolled; from a named sender it fans
// out into its receivers' private segments, every link rolled; from a
// node in no group it reaches only the sender, privately. Partition cuts
// are silent (KindPartition announced them).
func (n *Network) routeBroadcast(outs []send, k int32) {
	fs := n.faults
	s := &outs[k]
	f := n.senderIndex(s)
	switch g := fs.group[f]; {
	case fs.names(f):
		key := fs.sendKey(k)
		for r := range n.live {
			if !n.doneMask[r] && fs.joins(f, int32(r)) {
				n.rollLink(s, key, k, f, int32(r))
			}
		}
	case g < 0:
		if !n.doneMask[f] {
			n.private(f, k)
		}
	default:
		n.bcastIdx = append(n.bcastIdx, k)
		if fs.groups != nil {
			fs.bgroup = append(fs.bgroup, g)
		}
		if len(fs.named) == 0 {
			return
		}
		key := fs.sendKey(k)
		for _, r := range fs.named {
			if !n.doneMask[r] && fs.group[r] == g {
				n.rollLink(s, key, k, f, r)
			}
		}
	}
}

// routeUnicast classifies unicast k to live index r on a link-fault
// round: cut by the partition, rolled if a rule names an endpoint, or
// else delivered.
func (n *Network) routeUnicast(outs []send, k, r int32) {
	fs := n.faults
	s := &outs[k]
	f := n.senderIndex(s)
	switch {
	case !fs.joins(f, r):
	case fs.names(f) || fs.names(r):
		n.rollLink(s, fs.sendKey(k), k, f, r)
	default:
		n.private(r, k)
	}
}

// rollLink rolls the link of send k (key its hash prefix, f its sender's
// live index) to live index r, and delivers it privately unless it is
// dropped.
func (n *Network) rollLink(s *send, key uint64, k, f, r int32) {
	to := n.order[r]
	if drops(key, to, n.faults.rate(f, r, s.from, to)) {
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, From: uint64(s.from), To: uint64(to),
			Kind: trace.KindLinkDrop, Size: int(s.n),
		})
		return
	}
	n.private(r, k)
}

// private queues send k for live index r's private segment.
func (n *Network) private(r, k int32) {
	n.uniRecv = append(n.uniRecv, r)
	n.uniSend = append(n.uniSend, k)
}

// groupBlocks lays a partitioned round's block out one group after
// another: a stable counting sort of the classified broadcasts by their
// sender's group, so each group's block is one span of it, in
// send-index order, with its bounds and byte total in n.blocks.
func (n *Network) groupBlocks(outs []send) {
	fs := n.faults
	n.layBlocks(len(fs.groups))
	for g := range n.blocks {
		n.blocks[g].lo, n.blocks[g].hi, n.blocks[g].bytes = 0, 0, 0
	}
	for j, g := range fs.bgroup {
		n.blocks[g].hi++
		n.blocks[g].bytes += int64(outs[n.bcastIdx[j]].n)
	}
	lo := int32(0)
	for g := range n.blocks {
		b := &n.blocks[g]
		b.lo, b.hi, lo = lo, lo, lo+b.hi // hi is the fill cursor until the copy below
	}
	fs.regroup = grown(fs.regroup, len(n.bcastIdx))
	for j, g := range fs.bgroup {
		b := &n.blocks[g]
		fs.regroup[b.hi] = n.bcastIdx[j]
		b.hi++
	}
	copy(n.bcastIdx, fs.regroup)
}

// linkContacts keeps the contact rule exact on a link-fault round,
// before the route pass stamps the block's senders (see Network.knows),
// and reports whether it may: a stamp says the broadcast reached every
// receiver whose run of reading the block has begun. On an
// unpartitioned round the one block reaches every receiver that no
// rule names, so a named receiver's run ends — as at a crash, its
// contacts are noted one by one from then on. A rule is never retired,
// so a named node stays named and its run never begins again (a crashed
// one begins a new run when it recovers). No block of a partitioned
// round reaches every receiver, so none is stamped: each reader notes
// its block's senders instead, one merge per reader.
func (n *Network) linkContacts(outs []send) (stamp bool) {
	fs := n.faults
	if fs.groups == nil {
		for i, st := range n.live {
			if !n.doneMask[i] && fs.reads[i] < 0 && st.since != math.MaxInt {
				n.endRun(st)
			}
		}
		return true
	}
	fs.senders = fs.senders[:0]
	fs.senderStart = grown(fs.senderStart, len(n.blocks)+1)
	for g, b := range n.blocks {
		fs.senderStart[g] = int32(len(fs.senders))
		for j := b.lo; j < b.hi; j++ { // a block is sender-ascending
			if from := outs[n.bcastIdx[j]].from; j == b.lo || from != fs.senders[len(fs.senders)-1] {
				fs.senders = append(fs.senders, from)
			}
		}
	}
	fs.senderStart[len(n.blocks)] = int32(len(fs.senders))
	for i, st := range n.live {
		if g := fs.reads[i]; g >= 0 && !n.doneMask[i] {
			st.heard.AddAscending(fs.senders[fs.senderStart[g]:fs.senderStart[g+1]])
		}
	}
	return false
}
