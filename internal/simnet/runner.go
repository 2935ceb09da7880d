package simnet

// This file is the round engine's dispatch layer: how a round's one
// parallel region — step node i — becomes an indexed batch on the
// process-wide bounded scheduler (internal/simnet/sched). Everything
// else in a round, from the step merge to the observer hand-off, runs
// on the goroutine driving the network.
//
// A Network owns no worker goroutines. It binds to a scheduler on its
// first dispatch (the shared sched.Default unless a test injected a
// private one) and submits the step phase as one barriered dispatch,
// reusing a single Phase record and a single stepTask so the
// steady-state round performs no allocation. Config.Workers is a cap on
// how many shared workers may step this network's nodes at once, not a
// reservation: below 2 the dispatch is sched.Run's inline loop on the
// driving goroutine with no coordination at all, and a campaign running
// many simulations keeps total parallelism at the scheduler's budget no
// matter how many networks are in flight.
//
// Determinism: which worker steps which node varies run to run, but
// each task writes only its node's state and result slot (stepOne's
// ownership rule) and the step merge reads the slots in node order, so
// transcripts and accounting are independent of scheduling.

// stepTask is the Network's sched.Task: index i steps node i. It is
// embedded in the Network, so handing it to the scheduler never
// allocates.
type stepTask struct{ net *Network }

// Run steps node i into its result slot. Indices are disjoint per call
// and stepOne writes only node-owned state, so concurrent Run calls
// never conflict. Run must not block: a parked step task stalls every
// job sharing the scheduler's budget, and one waiting on something that
// never happens hangs the round at its barrier, which CI's bounded
// "Step-task ownership gate" turns into a failure.
func (t *stepTask) Run(i int) {
	n := t.net
	n.stepOne(n.live[i], &n.results[i])
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
