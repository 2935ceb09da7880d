package simnet

import "uba/internal/simnet/sched"

// This file is the round engine's dispatch layer: how a Network's two
// round phases — step-by-node and route-by-shard — become indexed
// batches on the process-wide bounded scheduler (internal/simnet/sched).
//
// A Network owns no worker goroutines. It binds to a scheduler on its
// first dispatch (the shared sched.Default unless a test injected a
// private one) and submits each phase as one barriered dispatch,
// reusing a single Phase record and a single phase-tagged poolTask so
// the steady-state round performs no allocation. Config.Workers is a
// cap on how many shared workers may drain this network's phase at
// once, not a reservation: below 2 the dispatch is sched.Run's inline
// loop on the driving goroutine with no coordination at all, and a
// campaign running many simulations keeps total parallelism at the
// scheduler's budget no matter how many networks are in flight.
//
// Determinism: which worker runs which index varies run to run, but the
// step merge reads result slots in node order and delivery shards fill
// disjoint receiver-ordered windows, so transcripts and accounting are
// independent of scheduling.

// poolPhase selects which half of a round a dispatched task runs.
type poolPhase uint8

const (
	phaseStep poolPhase = iota
	phaseRoute
)

// poolTask is one phase's work order: the Network's sched.Task. It is
// embedded in the Network and re-tagged per dispatch, so handing it to
// the scheduler costs a field rewrite, never an allocation.
type poolTask struct {
	net   *Network
	phase poolPhase
}

// Run executes one index of the dispatched phase: a node step into its
// result slot, or a shard delivery. Indices are disjoint per call, and
// both bodies write only index-owned state, so concurrent Run calls
// never conflict.
//
//lint:noalloc both phase bodies run over recycled per-node and per-shard state
//lint:nonblock phase bodies run to the scheduler's dispatch barrier; a blocking index would stall every job sharing the budget
func (t *poolTask) Run(i int) {
	n := t.net
	switch t.phase {
	case phaseStep:
		n.results[i] = n.stepOne(n.live[i])
	case phaseRoute:
		n.routeShardDeliver(&n.shards[i])
	}
}

// scheduler returns the scheduler this network dispatches on, binding
// to the process-wide default on first use. Tests inject a private
// scheduler (with ownsSched set) to force real parallelism on any
// host; everything else shares one budget.
func (n *Network) scheduler() *sched.Scheduler {
	if n.sched == nil {
		//lint:coldpath binding to the shared scheduler runs once per Network, on its first dispatch
		n.sched = sched.Default()
	}
	return n.sched
}

// workersCap is the network's concurrency cap: how many goroutines may
// drain one of its phase dispatches at once, and how many shards
// delivery is split into.
//
//lint:noalloc pure arithmetic over the config, computed per dispatch
func (n *Network) workersCap() int { return max(n.cfg.Workers, 1) }

// dispatch runs count indices of the given phase — node steps into
// n.results, or deliveries of n.shards — and returns at the phase
// barrier, after which the caller merges in index order.
//
//lint:noalloc the dispatch re-tags the embedded task and reuses the network's Phase record
func (n *Network) dispatch(phase poolPhase, count int) {
	n.task = poolTask{net: n, phase: phase}
	n.scheduler().Run(&n.phase, &n.task, count, n.workersCap())
}

// Close retires the network: a privately owned scheduler (test hook) is
// closed, and the round-scoped scratch buffers are cleared and returned
// to the process-wide recycling pool so the next Network — a later
// campaign cell, often on another goroutine — starts at this one's
// high-water mark instead of re-growing from nil. Close is idempotent;
// the Network must not run further rounds after it. It is optional
// (an abandoned Network is ordinary garbage — no goroutines or
// finalizers are attached), but campaigns that run thousands of cells
// want the buffer recycling.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	if n.ownsSched && n.sched != nil {
		n.sched.Close()
	}
	n.sched = nil
	n.releaseScratch()
}
