package simnet

import "uba/internal/simnet/sched"

// forceWorkers equips n with a private w-worker scheduler and a
// matching worker cap regardless of GOMAXPROCS, so tests exercise real
// parallel stepping on any host (CI race machines included); w = 1 is
// the inline stepping every default Config runs.
// Callers must Close the network, which also closes the private
// scheduler.
func (n *Network) forceWorkers(w int) { n.forceSched(w, w) }

// forceSched is forceWorkers with the private scheduler's budget chosen
// independently of the worker cap: budget < w leaves the cap
// under-served (the submitter drains the rest), budget > w leaves
// workers idle — the execution must not depend on either.
func (n *Network) forceSched(w, budget int) {
	n.cfg.Workers = w
	n.sched = sched.New(budget)
	n.ownsSched = true
}
