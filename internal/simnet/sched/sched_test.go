package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countTask records per-index hit counts and the peak number of
// concurrent Run bodies, to check exactly-once dispatch and cap
// enforcement.
type countTask struct {
	hits    []atomic.Int32
	active  atomic.Int32
	peak    atomic.Int32
	onRun   func(i int)
	spinFor int
}

func (t *countTask) Run(i int) {
	a := t.active.Add(1)
	for {
		p := t.peak.Load()
		if a <= p || t.peak.CompareAndSwap(p, a) {
			break
		}
	}
	if t.onRun != nil {
		t.onRun(i)
	}
	// Busy-spin briefly so concurrent drainers overlap even on hosts
	// where each index is otherwise sub-microsecond.
	x := 0
	for k := 0; k < t.spinFor; k++ {
		x += k
	}
	_ = x
	t.hits[i].Add(1)
	t.active.Add(-1)
}

func newCountTask(n int) *countTask {
	return &countTask{hits: make([]atomic.Int32, n), spinFor: 200}
}

func (t *countTask) checkExactlyOnce(tb testing.TB) {
	tb.Helper()
	for i := range t.hits {
		if got := t.hits[i].Load(); got != 1 {
			tb.Fatalf("index %d ran %d times, want exactly once", i, got)
		}
	}
}

func TestRunDispatchesEveryIndexExactlyOnce(t *testing.T) {
	s := New(4)
	defer s.Close()
	var p Phase
	for round := 0; round < 50; round++ {
		ct := newCountTask(97)
		s.Run(&p, ct, len(ct.hits), 4)
		ct.checkExactlyOnce(t)
	}
}

func TestRunSerialFastPaths(t *testing.T) {
	cases := []struct {
		name   string
		budget int
		n, cap int
	}{
		{"cap1", 4, 64, 1},
		{"capZero", 4, 64, 0},
		{"n1", 4, 1, 8},
		{"zeroBudget", 0, 64, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.budget)
			defer s.Close()
			ct := newCountTask(tc.n)
			var p Phase
			s.Run(&p, ct, tc.n, tc.cap)
			ct.checkExactlyOnce(t)
			if tc.cap <= 1 || tc.budget == 0 || tc.n == 1 {
				if peak := ct.peak.Load(); peak != 1 {
					t.Fatalf("serial fast path peaked at %d concurrent bodies, want 1", peak)
				}
			}
		})
	}
}

func TestRunZeroIndicesIsNoOp(t *testing.T) {
	s := New(2)
	defer s.Close()
	ct := newCountTask(1)
	var p Phase
	s.Run(&p, ct, 0, 4)
	if got := ct.hits[0].Load(); got != 0 {
		t.Fatalf("n=0 dispatch ran an index %d times", got)
	}
}

// TestCapBoundsConcurrency checks that no more than cap goroutines are
// ever inside Run bodies of one phase, even with budget headroom.
func TestCapBoundsConcurrency(t *testing.T) {
	s := New(8)
	defer s.Close()
	var p Phase
	for round := 0; round < 20; round++ {
		ct := newCountTask(256)
		ct.spinFor = 2000
		s.Run(&p, ct, len(ct.hits), 3)
		ct.checkExactlyOnce(t)
		if peak := ct.peak.Load(); peak > 3 {
			t.Fatalf("phase with cap=3 peaked at %d concurrent bodies", peak)
		}
	}
}

// TestConcurrentSubmitters runs many goroutines each dispatching many
// phases through one scheduler — the campaign shape — and checks every
// index of every dispatch runs exactly once.
func TestConcurrentSubmitters(t *testing.T) {
	s := New(4)
	defer s.Close()
	const jobs = 8
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p Phase
			for round := 0; round < 30; round++ {
				ct := newCountTask(64)
				s.Run(&p, ct, len(ct.hits), 4)
				ct.checkExactlyOnce(t)
			}
		}()
	}
	wg.Wait()
}

// nestedTask dispatches an inner phase from inside an outer Run body —
// the campaign-cell-runs-a-concurrent-simulation shape. Progress must
// not depend on free workers, because the outer phase may have
// saturated the budget.
type nestedTask struct {
	s     *Scheduler
	inner []*countTask
}

func (t *nestedTask) Run(i int) {
	var p Phase
	t.s.Run(&p, t.inner[i], len(t.inner[i].hits), 4)
}

func TestReentrantDispatch(t *testing.T) {
	s := New(2)
	defer s.Close()
	const outer = 6
	nt := &nestedTask{s: s}
	for i := 0; i < outer; i++ {
		nt.inner = append(nt.inner, newCountTask(40))
	}
	var p Phase
	s.Run(&p, nt, outer, outer)
	for i, ct := range nt.inner {
		for j := range ct.hits {
			if got := ct.hits[j].Load(); got != 1 {
				t.Fatalf("inner phase %d index %d ran %d times", i, j, got)
			}
		}
	}
}

// TestPhaseReuseQuiesces hammers one Phase record with back-to-back
// dispatches of different lengths; under the race detector this is the
// check that the quiescence barrier orders a worker's last reads
// before the next dispatch's writes.
func TestPhaseReuseQuiesces(t *testing.T) {
	s := New(4)
	defer s.Close()
	var p Phase
	for round := 0; round < 200; round++ {
		n := 1 + (round*7)%50
		ct := newCountTask(n)
		ct.spinFor = 50
		s.Run(&p, ct, n, 4)
		ct.checkExactlyOnce(t)
	}
}

func TestCloseWhileDispatching(t *testing.T) {
	s := New(3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var p Phase
		for round := 0; round < 50; round++ {
			ct := newCountTask(64)
			s.Run(&p, ct, len(ct.hits), 4)
			ct.checkExactlyOnce(t)
		}
	}()
	s.Close()
	<-done
	// Dispatching after Close still completes (submitter self-drains).
	ct := newCountTask(32)
	var p Phase
	s.Run(&p, ct, len(ct.hits), 4)
	ct.checkExactlyOnce(t)
}

func TestDefaultBudgetMatchesGOMAXPROCS(t *testing.T) {
	d := Default()
	if d.Budget() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default budget = %d, want GOMAXPROCS = %d", d.Budget(), runtime.GOMAXPROCS(0))
	}
	if Default() != d {
		t.Fatal("Default is not a singleton")
	}
}

func TestSetDefaultBudget(t *testing.T) {
	orig := Default().Budget()
	defer SetDefaultBudget(orig)
	s2 := SetDefaultBudget(2)
	if s2.Budget() != 2 {
		t.Fatalf("SetDefaultBudget(2).Budget() = %d", s2.Budget())
	}
	if Default() != s2 {
		t.Fatal("Default does not return the replaced scheduler")
	}
	if SetDefaultBudget(2) != s2 {
		t.Fatal("SetDefaultBudget with the current budget should be a no-op")
	}
	ct := newCountTask(64)
	var p Phase
	s2.Run(&p, ct, len(ct.hits), 4)
	ct.checkExactlyOnce(t)
}

// TestPickRotatesAcrossPhases pins the fairness mechanism directly:
// with several eligible phases active, successive picks hand out
// different phases in rotation instead of re-serving the first one.
// Driven with a zero-worker scheduler so nothing races the cursor.
func TestPickRotatesAcrossPhases(t *testing.T) {
	s := New(0)
	defer s.Close()
	tasks := make([]*countTask, 3)
	phases := make([]*Phase, 3)
	for i := range phases {
		tasks[i] = newCountTask(8)
		phases[i] = &Phase{task: tasks[i], n: 8, cap: 8}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phases = append(s.phases, phases...)
	order := make([]*Phase, 0, 6)
	for k := 0; k < 6; k++ {
		p := s.pick()
		if p == nil {
			t.Fatalf("pick %d returned nil with eligible phases active", k)
		}
		order = append(order, p)
	}
	for k, p := range order {
		if want := phases[k%3]; p != want {
			t.Fatalf("pick %d returned phase %v, want round-robin order", k, p)
		}
	}
	// A phase at its attachment cap is skipped, not re-served.
	phases[1].attached = int(phases[1].cap) - 1
	for k := 0; k < 4; k++ {
		if p := s.pick(); p == phases[1] {
			t.Fatal("pick returned a phase with no attachment headroom")
		}
	}
}

// rendezvous is a two-index task whose indices wait for each other:
// each Run spins until the other has started, so the submitter, which
// runs one, cannot finish the phase until a worker has picked it and
// attached. met counts the dispatches in which both indices ran.
type rendezvous struct {
	started atomic.Int32
	met     atomic.Int32
}

func (r *rendezvous) Run(int) {
	if r.started.Add(1) == 2 {
		r.started.Store(0)
		r.met.Add(1)
		return
	}
	for r.started.Load() != 0 {
		runtime.Gosched()
	}
}

// TestSteadyStateDispatchDoesNotAllocate pins the recycled-Phase
// contract: after warmup, a dispatch allocates nothing — its Run, the
// submitter's drain, and a budgeted worker's pick, attach and drain,
// which the rendezvous task forces into every dispatch.
func TestSteadyStateDispatchDoesNotAllocate(t *testing.T) {
	s := New(2)
	defer s.Close()
	var r rendezvous
	var p Phase
	s.Run(&p, &r, 2, 2) // warm: fin channel, phases list growth
	avg := testing.AllocsPerRun(100, func() {
		s.Run(&p, &r, 2, 2)
	})
	if got := r.met.Load(); got != 1+1+100 {
		t.Fatalf("a worker joined %d of %d dispatches, want every one", got, 1+1+100)
	}
	if avg != 0 {
		t.Fatalf("steady-state dispatch allocates %.1f allocs/op, want 0", avg)
	}
}
