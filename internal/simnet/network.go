package simnet

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"uba/internal/ids"
	"uba/internal/simnet/sched"
	"uba/internal/trace"
)

// Errors returned by the network.
var (
	// ErrMaxRounds reports that Run's stop predicate was not satisfied
	// within Config.MaxRounds rounds.
	ErrMaxRounds = errors.New("simnet: round limit exceeded")
	// ErrDuplicateID reports an attempt to register two processes with
	// the same identifier.
	ErrDuplicateID = errors.New("simnet: duplicate process id")
	// ErrContactRule reports a unicast from a correct process to a node
	// that never messaged it, which the paper's model forbids.
	ErrContactRule = errors.New("simnet: unicast to unknown contact")
)

// Config parameterizes a Network.
type Config struct {
	// MaxRounds bounds Run; 0 means DefaultMaxRounds. Protocols in this
	// repository terminate in O(n) rounds, so the bound exists only to
	// turn a protocol bug into a test failure instead of a hang.
	MaxRounds int
	// Workers is how many goroutines step this network's nodes: up to
	// Workers shared scheduler workers run the Step calls of a round.
	// Nothing else is parallel — merge, routing, delivery and observation
	// run on the driving goroutine — and values below 2 (the default)
	// step inline there too. The execution is identical for every value;
	// the knob pays on large single runs with Step-heavy protocols.
	Workers int
	// Collector, when non-nil, receives traffic accounting. Totals for a
	// round are flushed in one batch after the round's sends have been
	// validated and routed, so a round that aborts (on a contact-rule
	// violation, ErrContactRule) contributes no traffic.
	Collector *trace.Collector
	// EventLog, when non-nil, records a message-level transcript of
	// every delivery (for debugging and the ubasim -trace flag). The
	// canonical transcript order is receiver-major: per round,
	// deliveries are grouped by receiver in ascending node order, each
	// receiver's messages in its inbox order. The transcript is the same
	// for any worker count: it is read back serially from the routed
	// inboxes (see transcribe), and only when this field is set.
	// Fault-containment events (trace.KindNodeCrashed,
	// trace.KindQuotaDrop) are recorded in node order at the start of
	// the round they occurred in, before that round's deliveries.
	EventLog *trace.EventLog
	// Observer, when non-nil, receives each completed round's record at
	// the round boundary — the feed for online safety oracles
	// (internal/oracle): fault-plan events (plan order), containment
	// events (node order), link-fault events (send order), then one
	// message event per message stored for delivery next round — a
	// block broadcast once with To == 0 (every receiver that read its
	// block), an arena entry once with its receiver (see the package
	// docs); O(B + U) events, not n·B. The message
	// events are present only for an observer that reads them: one that
	// implements MessageReader and answers false gets the engine events
	// alone. The slice is reused across rounds; observers must not
	// retain it.
	Observer RoundObserver
	// SendQuota, when positive, bounds the send operations one node may
	// queue in one round. Excess sends are dropped deterministically
	// (queue order: the first SendQuota survive) and a single
	// trace.KindQuotaDrop event records the drop — the containment
	// valve for Byzantine amplification floods. Applies to every node,
	// correct or Byzantine; quotas are a network capacity, not a
	// behavior assumption.
	SendQuota int
	// FaultPlan, when non-nil, schedules deterministic round-timed
	// faults — partitions, link drop rules, crash/recover churn, quota
	// changes (see fault.go).
	// An invalid plan latches as the network's error, surfaced by the
	// first RunRound. A nil plan compiles to the unmodified zero-alloc
	// round path.
	FaultPlan *FaultPlan
}

// RoundObserver receives each completed round's trace events — the
// attachment point for online safety monitors. ObserveRound is called
// once per successful round, from the goroutine driving the network,
// whatever the worker cap. The events slice is valid only for the
// duration of the call. It holds the round's message events only if the
// observer reads them (see MessageReader); its engine events always.
type RoundObserver interface {
	ObserveRound(round int, events []trace.Event)
}

// MessageReader is the optional extension of RoundObserver for an
// observer that can say whether it reads the round record's message
// events. The engine asks once per round, before the route pass, and
// builds the message events only on a true answer; an observer that
// does not implement it gets them every round. Asking every round lets
// an observer's answer change between rounds (an oracle suite can gain
// an oracle after the network is built).
type MessageReader interface {
	ReadsMessages() bool
}

// RoundAccounting is the per-round traffic ledger: the
// broadcast/unicast split of the round's send operations, the
// post-fanout delivery tallies, and the largest single-node send
// counts among correct senders — the quantity the protocols' registered
// complexity contracts bound. It is computed in one allocation-free
// pass over the placed send stream.
type RoundAccounting struct {
	// Broadcasts and Unicasts count the round's send operations by
	// kind, across all senders.
	Broadcasts int64
	Unicasts   int64
	// Deliveries and Bytes are the post-fanout totals, as in
	// trace.RoundStats.
	Deliveries int64
	Bytes      int64
	// Nodes is the number of live processes this round.
	Nodes int
	// CorrectMaxBroadcasts and CorrectMaxUnicasts are the largest
	// per-node tallies among non-Byzantine senders. Byzantine nodes
	// are excluded: an adversary is free to flood, and the complexity
	// contracts only bound correct processes.
	CorrectMaxBroadcasts int
	CorrectMaxUnicasts   int
}

// RoundStatsObserver is the optional extension of RoundObserver: an
// observer that also implements it receives each successful round's
// RoundAccounting immediately after ObserveRound. The runtime
// complexity oracle attaches here.
type RoundStatsObserver interface {
	ObserveRoundStats(round int, acct RoundAccounting)
}

// DefaultMaxRounds is the Run bound used when Config.MaxRounds is zero.
const DefaultMaxRounds = 10_000

type procState struct {
	proc Process
	// id is the identifier the process registered with. The engine
	// stamps it as the sender on every queued message (rather than
	// re-asking proc.ID() each round), which both drops an interface
	// call from the hot path and guarantees the per-sender grouping the
	// placed send stream relies on.
	id        ids.ID
	byzantine bool
	// crashed marks a node whose Step panicked (the engine contained
	// the panic and converted the node into a crash fault) or that a
	// fault plan crashed on schedule. A crashed node is not stepped and
	// receives no messages; only a fault-plan recover event clears it.
	crashed bool

	// Contact state: x has delivered a message to this node exactly when
	// x is in heard or x's lastBcast is at least this node's since (see
	// knows). Only serial code writes these fields. They sit in the
	// struct's first cache line, beside the fields the route pass already
	// reads for every node.
	//
	// lastBcast is the last route round whose shared broadcast block
	// carried this node's broadcast; 0 if none has.
	lastBcast int
	// since is the route round that began this node's current unbroken
	// run of receiving the block, math.MaxInt while it is crashed. Done
	// ends no run: a terminated node is never stepped again.
	since int
	// heard holds the contacts the block rule does not imply: the senders
	// of this node's arena entries, and the block senders of a run that
	// ended in a crash or of a sender that was removed, in id order.
	// Empty until needed.
	heard ids.Set

	// delivery is where this node's next-round inbox lies in the
	// network's block and arena: written by the route pass, consumed by
	// the node's next step (see Network.setInbox).
	delivery inboxBounds

	// Round-scoped scratch, recycled across rounds (see the package
	// docs for the retention contract this imposes on Process.Step).
	// buf is taken from the network's scratch when the node is added and
	// returned to it when the node is removed or the network closed.
	env RoundEnv
	buf nodeBuf
}

// inboxBounds locates one receiver's inbox in the round's storage: if
// fed, the broadcast block blocks[blk] (none if blk < 0) and the arena
// segment uniArena[lo:hi]; if not, nothing. It is 16 bytes, so the route
// pass writes that per receiver, not a whole Inbox view.
type inboxBounds struct {
	lo, hi, blk int32
	fed         bool
}

// nodeBuf is one node's send buffers: the queued send records and the
// bytes they point into.
type nodeBuf struct {
	sends []send
	enc   []byte
}

// stepResult is one process's contribution to a round, written to the
// node's result slot and merged in node order. Containment outcomes (a contained
// panic, a quota drop) travel through it so the merge can emit their
// trace events in node order regardless of worker scheduling.
type stepResult struct {
	// sends are the node's surviving send records; their offsets point
	// into enc, the node's byte buffer, until place renumbers them.
	sends []send
	enc   []byte
	err   error
	// crashed reports that Step panicked this round and the node was
	// converted into a crash fault; crashReason is the recovered panic
	// value (kept out of the transcript — see Network.Crashes).
	crashed     bool
	crashReason string
	// dropped counts send operations discarded by the send quota.
	dropped int
}

// CrashRecord describes one contained Step panic.
type CrashRecord struct {
	// Node is the process that panicked.
	Node ids.ID
	// Round is the round whose Step call panicked.
	Round int
	// Reason is the recovered panic value, formatted. It is diagnostic
	// only and deliberately not part of the trace transcript (a panic
	// value could format pointers, which would break byte-identical
	// transcripts across runs).
	Reason string
}

// Network owns a set of processes and runs them in lock-step rounds.
// Methods are not safe for concurrent use; drive a Network from one
// goroutine (a worker cap above 1 parallelizes internally).
type Network struct {
	cfg Config
	// statsObs is cfg.Observer as a RoundStatsObserver, or nil. It is
	// asserted once here, not per round: a failed interface assertion
	// may allocate into the runtime's per-site assertion cache.
	statsObs RoundStatsObserver
	// msgReader is cfg.Observer as a MessageReader, or nil, asserted
	// once like statsObs.
	msgReader MessageReader
	// order and live are the node table, the one way to find a node:
	// the live process ids, sorted ascending, and their states.
	order []ids.ID
	live  []*procState
	round int
	err   error

	// Round-scoped buffers reused across rounds — and, through Close,
	// across networks — to keep the hot path allocation-free in steady
	// state (see scratch.go).
	netScratch

	// crashes are the contained panics in occurrence order.
	crashes []CrashRecord

	// faults is the compiled Config.FaultPlan, nil for fault-free runs
	// (the fault-free hot path checks this one pointer and nothing else).
	faults *faultState

	// engineEvents is where the round record's message events start:
	// roundEvents[:engineEvents] are the plan, containment and link events.
	engineEvents int

	// bcastLive/uniLive track how much of the recycled block/arena held
	// references last round, so shrinking rounds clear the dead tail;
	// blocksLive how many broadcast blocks it had.
	bcastLive  int
	uniLive    int
	blocksLive int

	// Step dispatch state (see runner.go): the scheduler this network
	// submits its step phase to (bound lazily to sched.Default unless a
	// test injects a private one), the reusable Phase record and task,
	// and the lifecycle flags Close manages.
	sched      *sched.Scheduler
	ownsSched  bool
	closed     bool
	phase      sched.Phase
	task       stepTask
	scratchBox *netScratch // emptied box kept for releaseScratch (see scratch.go)
}

// New returns an empty network. Its round buffers start at whatever
// high-water mark the last Closed network parked in the scratch pool
// (see scratch.go), so campaign cells do not re-grow them from nil.
func New(cfg Config) *Network {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	n := &Network{cfg: cfg}
	n.statsObs, _ = cfg.Observer.(RoundStatsObserver)
	n.msgReader, _ = cfg.Observer.(MessageReader)
	n.task.net = n
	if cfg.FaultPlan != nil {
		if err := cfg.FaultPlan.Validate(); err != nil {
			n.err = fmt.Errorf("simnet: invalid fault plan: %w", err)
		} else {
			n.faults = newFaultState(cfg.FaultPlan)
		}
	}
	n.adoptScratch()
	if n.index == nil {
		n.index = new(blockIndex)
	}
	return n
}

// Add registers a correct process. It must be called before the first
// round or between rounds (a node joining a dynamic network joins at a
// round boundary, per the paper's dynamic model).
func (n *Network) Add(p Process) error { return n.add(p, false) }

// AddByzantine registers a Byzantine process. Byzantine processes are
// exempt from the contact rule: the paper allows a Byzantine node to
// behave as if it already knows all the nodes.
func (n *Network) AddByzantine(p Process) error { return n.add(p, true) }

func (n *Network) add(p Process, byzantine bool) error {
	id := p.ID()
	if id == ids.None {
		return fmt.Errorf("simnet: process id must be nonzero")
	}
	i, exists := slices.BinarySearch(n.order, id)
	if exists {
		return fmt.Errorf("%w: %v", ErrDuplicateID, id)
	}
	st := &procState{
		proc:      p,
		id:        id,
		byzantine: byzantine,
		since:     n.round + 1, // joins between rounds: the next route delivers to it
		buf:       n.takeBuf(),
	}
	n.order = slices.Insert(n.order, i, id)
	n.live = slices.Insert(n.live, i, st)
	return nil
}

// Remove detaches a process from the network (a node that has left a
// dynamic network). Pending messages to it are dropped. It stays a
// contact of every node it delivered a message to.
func (n *Network) Remove(id ids.ID) {
	i, ok := slices.BinarySearch(n.order, id)
	if !ok {
		return
	}
	st := n.live[i]
	n.order = slices.Delete(n.order, i, i+1)
	n.live = slices.Delete(n.live, i, i+1)
	for _, v := range n.live {
		if st.lastBcast >= v.since {
			v.heard.Add(id)
		}
	}
	n.parkBuf(st)
}

// takeBuf hands a node the send buffers a removed node or a closed
// network parked, so a warm network's nodes start at the high-water
// capacity instead of regrowing from nil.
func (n *Network) takeBuf() nodeBuf {
	k := len(n.spare) - 1
	if k < 0 {
		return nodeBuf{}
	}
	b := n.spare[k]
	n.spare[k] = nodeBuf{}
	n.spare = n.spare[:k]
	return b
}

// parkBuf returns st's send buffers to the scratch for the next node.
func (n *Network) parkBuf(st *procState) {
	n.spare = append(n.spare, st.buf)
	st.buf = nodeBuf{}
}

// state returns the state of the live node x, or nil if the network
// holds none.
func (n *Network) state(x ids.ID) *procState {
	if i, ok := slices.BinarySearch(n.order, x); ok {
		return n.live[i]
	}
	return nil
}

// knows reports whether x has delivered a message to st, the contact
// rule's predicate. Step tasks call it concurrently: it reads st, the
// node table and other nodes' lastBcast, which only serial code writes
// (the route pass stamps lastBcast, on a round whose block reached every
// receiver in a run; see linkContacts).
func (n *Network) knows(st *procState, x ids.ID) bool {
	if st.heard.Contains(x) {
		return true
	}
	xs := n.state(x)
	return xs != nil && xs.lastBcast >= st.since
}

// crash turns st into a crash fault. The block stops reaching it, so its
// run ends. It runs before the round's route pass, which is what keeps
// this round's broadcasts out of the fold.
func (n *Network) crash(st *procState) {
	st.crashed = true
	n.endRun(st)
}

// endRun ends st's run of reading the block: the block senders of the
// run become explicit contacts, and no later stamp reaches st until a
// new run begins. It runs before the route pass stamps.
func (n *Network) endRun(st *procState) {
	for _, x := range n.live {
		if x.lastBcast >= st.since {
			st.heard.Add(x.id)
		}
	}
	st.since = math.MaxInt
}

// Round returns the number of rounds executed so far.
func (n *Network) Round() int { return n.round }

// RunRound executes exactly one round: step every live, non-done process
// with its inbox, then route the produced messages for delivery at the
// start of the next round. The round's trace events accumulate in one
// record, n.roundEvents, whose producers run in the canonical order —
// fault-plan events, containment events (step merge), link-fault events
// (route filter), one message event per stored message (route, for an
// observer that reads them) — all on this goroutine — and which is
// handed once to the Observer; the EventLog is flushed by transcribe.
// Traffic accounting is batched the same way: one Collector flush per
// successful round, nothing for an aborted one.
//
// A Step panic does not abort the round: it is recovered inside the
// per-node step task and the node becomes a crash fault — silent and
// unreachable from this round on — with a trace.KindNodeCrashed event
// recorded (see Crashes for the panic values). Because recovery happens
// before the node-order merge, transcripts stay byte-identical across
// worker counts.
func (n *Network) RunRound() error {
	if n.err != nil {
		return n.err
	}
	n.round++
	n.roundEvents = n.roundEvents[:0]
	if n.faults != nil {
		// Plan events apply before stepping, on this goroutine, so
		// crash/recover/quota effects are identical for every
		// worker count and their trace events head the round's record.
		n.applyFaultEvents()
	}

	outs, err := n.step()
	if err != nil {
		n.err = err
		return err
	}
	acct := n.finishRound(outs)
	if n.cfg.Collector != nil {
		n.cfg.Collector.AddRound(n.round, acct.Broadcasts, acct.Unicasts, acct.Deliveries, acct.Bytes)
	}
	return nil
}

// finishRound is RunRound from the step merge on, minus the Collector
// flush: account, route, transcribe, and hand the round record to the
// observer. The route benchmark rows and the zero-alloc gate run it on a
// frozen send stream (RoundPhases.RouteOnly), so what they measure is
// this method and not a copy of it.
func (n *Network) finishRound(outs []send) RoundAccounting {
	var acct RoundAccounting
	if n.cfg.Collector != nil || n.statsObs != nil {
		acct = n.accountRound(outs)
	}
	acct.Deliveries, acct.Bytes = n.route(outs)
	if n.cfg.EventLog != nil {
		n.transcribe()
	}
	if n.cfg.Observer != nil {
		n.cfg.Observer.ObserveRound(n.round, n.roundEvents)
	}
	if n.statsObs != nil {
		n.statsObs.ObserveRoundStats(n.round, acct)
	}
	return acct
}

// transcribe flushes the round to Config.EventLog: the record's engine
// events, then one event per delivery, read back from every receiver's
// next-round inbox through the iterator the protocols themselves read —
// receiver-major by construction. The deliveries are staged in the
// record's spare capacity, past what the observer is handed.
func (n *Network) transcribe() {
	n.cfg.EventLog.RecordBatch(n.roundEvents[:n.engineEvents])
	staged, end := n.roundEvents, len(n.roundEvents)
	for _, st := range n.live {
		for m := range n.inboxOf(st).All() {
			staged = append(staged, messageEvent(n.round+1, &m, st.id))
		}
	}
	n.cfg.EventLog.RecordBatch(staged[end:])
	n.roundEvents = staged[:end]
}

// accountRound tallies the round's placed send stream: total
// broadcast/unicast counts plus the per-node maxima among correct
// senders. Each sender's sends are contiguous and senders ascend in node
// order, so one pass over the runs, with a cursor over the node table
// for each run's sender, suffices — no lookup, no per-node scratch, no
// allocation. Byzantine senders are left out of the maxima: the
// complexity contracts only bound correct processes.
func (n *Network) accountRound(outs []send) RoundAccounting {
	acct := RoundAccounting{Nodes: len(n.live)}
	node := 0
	for lo := 0; lo < len(outs); {
		from := outs[lo].from
		b, u := 0, 0
		hi := lo
		for ; hi < len(outs) && outs[hi].from == from; hi++ {
			if outs[hi].to == ids.None {
				b++
			} else {
				u++
			}
		}
		lo = hi
		acct.Broadcasts += int64(b)
		acct.Unicasts += int64(u)
		for n.order[node] != from {
			node++
		}
		if !n.live[node].byzantine {
			acct.CorrectMaxBroadcasts = max(acct.CorrectMaxBroadcasts, b)
			acct.CorrectMaxUnicasts = max(acct.CorrectMaxUnicasts, u)
		}
	}
	return acct
}

// noteResult folds one node's step outcome into the round: containment
// events are appended to the round record in call — i.e. node — order,
// and contained panics are recorded.
func (n *Network) noteResult(st *procState, res *stepResult) {
	// Quota-drop precedes node-crashed: a node that both exceeded its
	// quota and panicked in the same round violated the quota first
	// (while still running), then died.
	if res.dropped > 0 {
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, From: uint64(st.id), Kind: trace.KindQuotaDrop,
			Size: res.dropped,
		})
	}
	if res.crashed {
		n.crash(st)
		n.crashes = append(n.crashes, CrashRecord{
			Node: st.id, Round: n.round, Reason: res.crashReason,
		})
		n.roundEvents = append(n.roundEvents, trace.Event{
			Round: n.round, From: uint64(st.id), Kind: trace.KindNodeCrashed,
		})
	}
}

// step runs the step phase: every live process is stepped into its
// node's result slot through one scheduler dispatch (inline on this
// goroutine at a worker cap below 2), then the slots are merged in node
// order and the sends placed into the recycled outs buffer — so the send
// stream, the containment events and the first reported error are
// independent of which worker ran which node.
func (n *Network) step() ([]send, error) {
	n.results = grown(n.results, len(n.live))
	if n.sched == nil {
		// Tests inject a private scheduler (with ownsSched set) to force
		// real parallelism on any host; everything else shares one budget.
		n.sched = sched.Default()
	}
	n.sched.Run(&n.phase, &n.task, len(n.live), n.cfg.Workers)

	// Merge: containment outcomes in node order up to the first error,
	// then the sends placed in (sender, encoding, receiver) order
	// (intern.go). The node buffers are read after the barrier, which
	// orders them after the step tasks that wrote them.
	for i := range n.results {
		res := &n.results[i]
		if res.err != nil {
			return nil, res.err // first error in node order
		}
		n.noteResult(n.live[i], res)
	}
	return n.place(n.results), nil
}

// stepOne steps a single process with its pending inbox and writes the
// outcome to res, the node's result slot. It is safe to call
// concurrently for distinct processes because it writes only st and res
// (its node's own state) and only reads n. It must never block, since
// the round's dispatch barrier waits for it. The worker-count equivalence
// tests hold both rules under -race (the "Step-task ownership gate" in
// CI). A panic inside Process.Step is contained here — inside the
// per-node task, before the node-order merge — so the conversion into a
// crash fault is identical for every worker count. The env, its inbox
// view and the slot are written in place, field by field: each is about
// a hundred bytes, and building one as a value and copying it in costs a
// block copy per node per round.
func (n *Network) stepOne(st *procState, res *stepResult) {
	*res = stepResult{}
	d := st.delivery
	st.delivery = inboxBounds{}
	if st.crashed || st.proc.Done() {
		return
	}
	// The inbox view reads through the shared broadcast block and the
	// unicast arena, which route() overwrites wholesale next round —
	// this is what forbids Process.Step from retaining env.Inbox.
	env := &st.env
	env.Round, env.self = n.round, st.id
	env.sends, env.enc = st.buf.sends[:0], st.buf.enc[:0]
	n.setInbox(&env.Inbox, d)
	reason, panicked := safeStep(st.proc, env)
	st.buf.sends, st.buf.enc = env.sends, env.enc
	env.Inbox = Inbox{}
	sends, dropped := n.applyQuota(st.buf.sends)
	res.dropped = dropped
	if panicked {
		// Deterministic crash conversion: the crashing round produces
		// nothing (its partial send queue is discarded) and the node is
		// silent and unreachable from here on — a fail-stop fault, the
		// strongest containment the model offers. A quota violation the
		// node committed before dying is still accounted (the transcript
		// shows the drop, then the crash).
		st.crashed = true
		res.crashed, res.crashReason = true, reason
		return
	}
	if !st.byzantine {
		for i := range sends {
			s := &sends[i]
			if s.to != ids.None && !n.knows(st, s.to) {
				res.err = fmt.Errorf("%w: %v -> %v in round %d",
					ErrContactRule, s.from, s.to, n.round)
				return
			}
		}
	}
	res.sends, res.enc = sends, st.buf.enc
}

// inboxOf returns st's next-round inbox (see setInbox).
func (n *Network) inboxOf(st *procState) Inbox {
	var in Inbox
	n.setInbox(&in, st.delivery)
	return in
}

// setInbox points in at the next-round inbox d locates: a view over the
// block and the arena segment the last route pass delivered, or nothing
// if d is not fed. Only the route pass writes what it reads, so step
// tasks may call it concurrently.
func (n *Network) setInbox(in *Inbox, d inboxBounds) {
	if !d.fed {
		*in = Inbox{}
		return
	}
	// Capacity caps keep even a pathological append on a leaked slice
	// from crossing into a neighbour.
	in.uni, in.ukeys = n.uniArena[d.lo:d.hi:d.hi], n.uniIdx[d.lo:d.hi:d.hi]
	if d.blk < 0 {
		in.bcast, in.bkeys, in.idx = nil, nil, nil
		return
	}
	b := &n.blocks[d.blk]
	in.bcast, in.bkeys = n.bcastBlock[b.lo:b.hi:b.hi], n.bcastIdx[b.lo:b.hi:b.hi]
	in.idx = b.idx
}

// safeStep runs one Step call with panic containment. It exists so the
// deferred recover covers exactly the process code: a panic in the
// engine itself still crashes loudly.
func safeStep(p Process, env *RoundEnv) (reason string, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			reason = fmt.Sprint(r)
			panicked = true
		}
	}()
	p.Step(env)
	return "", false
}

// applyQuota truncates a node's send queue to the configured per-round
// send quota, if there is one: the first SendQuota sends survive, in
// queue order, so the drop decision is a pure function of the queue —
// identical for every worker count. It returns the surviving prefix and
// the number of dropped sends.
func (n *Network) applyQuota(sends []send) ([]send, int) {
	keep := n.cfg.SendQuota
	if keep <= 0 || keep >= len(sends) {
		return sends, 0
	}
	return sends[:keep], len(sends) - keep
}

// Run executes rounds until stop returns true (checked after every round)
// or the round limit is reached, and returns the number of rounds run.
func (n *Network) Run(stop func(*Network) bool) (int, error) {
	start := n.round
	for n.round-start < n.cfg.MaxRounds {
		if err := n.RunRound(); err != nil {
			return n.round - start, err
		}
		if stop(n) {
			return n.round - start, nil
		}
	}
	return n.round - start, fmt.Errorf("%w (%d rounds)", ErrMaxRounds, n.cfg.MaxRounds)
}

// AllDone returns a stop predicate that is satisfied when every process
// with one of the given ids reports Done. Use it to wait for the correct
// nodes while Byzantine processes keep running. Removed and crashed
// processes count as finished: like a node that left the network, a
// crash-fault node will never report Done, and waiting on it would turn
// every contained panic into a round-limit error.
func AllDone(waitFor []ids.ID) func(*Network) bool {
	return func(n *Network) bool {
		for _, id := range waitFor {
			// Removed processes count as finished, and crash faults
			// never halt: wait for neither.
			if st := n.state(id); st != nil && !st.crashed && !st.proc.Done() {
				return false
			}
		}
		return true
	}
}

// Crashes returns the contained Step panics so far, in containment
// order (round, then node order within a round). The panic values are
// diagnostic only; the trace transcript records crashes as
// trace.KindNodeCrashed events without them.
func (n *Network) Crashes() []CrashRecord {
	out := make([]CrashRecord, len(n.crashes))
	copy(out, n.crashes)
	return out
}
