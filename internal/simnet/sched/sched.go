// Package sched is the process-wide bounded scheduler behind every
// concurrent simulation: one worker budget, shared by all of them.
//
// The engine used to give each concurrent Network a private goroutine
// pool, which made the per-simulation knob a *reservation*: a campaign
// running J simulations with W workers each put J×W goroutines on the
// machine regardless of how many cores it has. This package inverts
// that. A Scheduler owns a fixed budget of worker goroutines (normally
// one per GOMAXPROCS, spawned once for the whole process) and every
// concurrent simulation submits its barriered phases — step-by-node,
// campaign-cell-by-index — to the same pool. The per-job worker count
// is now a *cap* on how many of the shared workers may drain that job's
// phase at once, so J jobs × W workers never oversubscribes: the
// running worker count is bounded by the budget plus the submitting
// goroutines (which always help drain their own phase).
//
// # Dispatch model
//
// A phase is an indexed batch: n independent indices, each passed to
// Task.Run exactly once. Workers (and the submitter) claim indices
// from a shared atomic dispenser, so which goroutine runs which index
// varies run to run — every caller must therefore merge results in
// index order, never in completion order. That discipline is what
// makes the whole engine schedule-independent: transcripts, reports
// and repros are byte-identical for any budget, any cap, and any mix
// of concurrent jobs (see the determinism argument in DESIGN.md §10).
//
// Fairness is round-robin at phase granularity: a free worker picks
// its next phase starting from a rotating cursor and then drains it to
// exhaustion. Phases are round-sized (one step barrier), so a job can
// monopolize an attached worker for at most one round of work before
// the cursor hands it to the next job. A phase's cap bounds how many
// workers attach to it, leaving headroom for later arrivals.
//
// # Blocking and reentrancy
//
// Task bodies must not block: a blocked worker is deducted from every
// job's throughput, and a task that blocked on its own phase's barrier
// would deadlock. Nothing proves this statically; for the simnet step
// task, CI's "Step-task ownership gate" runs the worker-count tests
// under a two-minute timeout, so a step task that waits forever fails
// there. Dispatching from inside a Run body is allowed — the
// nested submitter drains its own phase, so progress never depends on
// free workers — which is how campaign cells that themselves run
// concurrent simulations compose.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one phase's work order: an indexed batch whose Run method is
// invoked exactly once for every index in [0, n). Run must be safe for
// concurrent calls with distinct indices and must not block (a parked
// worker stalls every job sharing the budget; a task blocking on its
// own phase barrier deadlocks). The contract is held at run time, not
// proven: see the package comment.
type Task interface {
	Run(i int)
}

// Phase is the reusable dispatch record a job threads through Run
// calls: it holds the barrier state for one in-flight dispatch and is
// recycled across dispatches so the steady-state hot path performs no
// allocation. The zero value is ready. A Phase must not be shared by
// two concurrent dispatches (a Network reuses one Phase for the step
// phase of every round; rounds never overlap).
type Phase struct {
	task Task
	n    int32
	cap  int32
	next atomic.Int32 // index dispenser
	done atomic.Int32 // completed indices
	// attached counts goroutines currently draining this phase
	// (workers only, not the submitter); guarded by the scheduler's
	// mutex. The submitter waits for it to reach zero before reusing
	// the record, so a worker parked mid-pick can never observe the
	// next dispatch's half-written fields.
	attached int
	// fin is the completion token: 1-buffered, sent exactly once per
	// dispatch by whichever goroutine finishes the last index, received
	// exactly once by the submitter. Allocated on first use, reused
	// forever after.
	fin chan struct{}
}

// Scheduler multiplexes indexed phases from many concurrent jobs over
// one bounded set of worker goroutines.
type Scheduler struct {
	budget int

	mu     sync.Mutex
	cond   *sync.Cond
	phases []*Phase // active dispatches with possibly unclaimed work
	cursor int      // round-robin pick position
	closed bool
}

// New returns a scheduler with the given worker budget. A budget of
// zero or less spawns no workers: every dispatch is drained entirely
// by its submitting goroutine — the degenerate mode is still correct,
// just serial. Most callers want Default instead; private schedulers
// are for tests that need an exact, isolated worker count.
func New(budget int) *Scheduler {
	if budget < 0 {
		budget = 0
	}
	s := &Scheduler{budget: budget}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < budget; w++ {
		go s.worker()
	}
	return s
}

// Budget returns the scheduler's worker-goroutine budget.
func (s *Scheduler) Budget() int { return s.budget }

// Close releases the scheduler's workers once the active phases drain.
// In-flight and even later dispatches stay correct — their submitters
// drain them alone — so Close is safe to call while jobs are running;
// it only retires the shared capacity. The process-wide Default
// scheduler is never closed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// defaultSched is the process-wide scheduler, created on first use
// with one worker per GOMAXPROCS.
var (
	defaultMu    sync.Mutex
	defaultSched *Scheduler
)

// Default returns the process-wide scheduler, creating it on first use
// with a budget of GOMAXPROCS workers — the whole point: every
// concurrent simulation in the process shares this one pool unless it
// explicitly constructs its own.
func Default() *Scheduler {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultSched == nil {
		defaultSched = New(runtime.GOMAXPROCS(0))
	}
	return defaultSched
}

// SetDefaultBudget replaces the process-wide scheduler with one of the
// given budget — the CLI hook behind `ubasim -jobs`, so an operator can
// bound total simulation parallelism below GOMAXPROCS. The budget is
// taken as given (New spawns one goroutine per unit): a caller passing
// on operator input clamps it first.
// Jobs that already captured the previous default keep using it; its
// workers are released once their phases drain. Returns the new
// default.
func SetDefaultBudget(budget int) *Scheduler {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultSched != nil {
		if defaultSched.budget == budget {
			return defaultSched
		}
		defaultSched.Close()
	}
	defaultSched = New(budget)
	return defaultSched
}

// Run dispatches one phase — n indices of t, at most cap concurrent
// drainers including the calling goroutine — and returns once every
// index has completed (the phase barrier). cap <= 1, n <= 1, or a
// zero-budget scheduler short-circuits to a serial inline loop with no
// coordination at all, which is also why per-job worker caps are caps
// and not reservations: a cap-1 job costs the shared pool nothing.
//
// The submitter always drains alongside the workers, so Run completes
// even when every budgeted worker is busy with other jobs — admission
// can delay a phase, never starve it.
func (s *Scheduler) Run(p *Phase, t Task, n, cap int) {
	if n <= 0 {
		return
	}
	if cap > n {
		cap = n
	}
	if cap <= 1 || s.budget == 0 || n == 1 {
		for i := 0; i < n; i++ {
			t.Run(i)
		}
		return
	}
	p.task = t
	p.n = int32(n)
	p.cap = int32(cap)
	p.next.Store(0)
	p.done.Store(0)
	if p.fin == nil {
		p.fin = make(chan struct{}, 1)
	}

	s.mu.Lock()
	s.phases = append(s.phases, p)
	s.mu.Unlock()
	s.cond.Broadcast()

	p.drain()
	// The last finisher — possibly this goroutine — sent the token.
	<-p.fin

	// Retire the phase: out of the active list so no new worker can
	// pick it, then wait out workers already attached (they detach
	// under the lock, which orders their final reads of p's fields
	// before any reuse by the next dispatch).
	s.mu.Lock()
	for i, q := range s.phases {
		if q == p {
			last := len(s.phases) - 1
			s.phases[i] = s.phases[last]
			s.phases[last] = nil
			s.phases = s.phases[:last]
			break
		}
	}
	for p.attached > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	p.task = nil
}

// drain claims indices until the dispenser is exhausted, running each,
// and sends the completion token if it finishes the last one.
func (p *Phase) drain() {
	n := p.n
	for {
		i := p.next.Add(1) - 1
		if i >= n {
			return
		}
		p.task.Run(int(i))
		if p.done.Add(1) == n {
			p.fin <- struct{}{}
		}
	}
}

// pick selects the next phase with unclaimed work and attachment
// headroom, round-robin from the cursor so concurrent jobs interleave.
// Caller holds s.mu.
func (s *Scheduler) pick() *Phase {
	np := len(s.phases)
	for k := 0; k < np; k++ {
		p := s.phases[(s.cursor+k)%np]
		if p.next.Load() < p.n && p.attached < int(p.cap)-1 {
			// cap counts the submitter, which is always draining; the
			// workers get the remaining cap-1 slots.
			s.cursor = (s.cursor + k + 1) % np
			return p
		}
	}
	return nil
}

// worker is one budgeted goroutine: pick a phase, help drain it,
// detach, repeat; park when no phase is eligible.
func (s *Scheduler) worker() {
	s.mu.Lock()
	for {
		p := s.pick()
		if p == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		p.attached++
		s.mu.Unlock()
		p.drain()
		s.mu.Lock()
		p.attached--
		if p.attached == 0 {
			// The submitter may be waiting in Run for the phase to
			// quiesce before reusing the record.
			s.cond.Broadcast()
		}
	}
}
