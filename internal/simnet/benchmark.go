package simnet

import (
	"math/rand"
	"runtime"

	"uba/internal/ids"
	"uba/internal/simnet/sched"
	"uba/internal/trace"
	"uba/internal/wire"
)

// ChatterProcess broadcasts one distinct payload every round and never
// terminates: the broadcast-heavy workload (n² deliveries per round) that
// the paper's protocols put on the engine in their all-to-all phases. It
// is exported so the round-engine micro-benchmarks in this package and in
// cmd/ubabench measure the identical workload.
type ChatterProcess struct {
	Ident ids.ID
}

// ID returns the process identifier.
func (c *ChatterProcess) ID() ids.ID { return c.Ident }

// Done always reports false; a chatter process never halts.
func (c *ChatterProcess) Done() bool { return false }

// Step broadcasts one payload whose content varies by round, so
// cross-round dedup state cannot short-circuit the work.
func (c *ChatterProcess) Step(env *RoundEnv) {
	env.Broadcast(wire.Input{X: wire.V(float64(env.Round))})
}

// NewBroadcastBench builds a network of n chatter processes with traffic
// accounting attached — the standard fixture for BenchmarkRoundEngine*
// and the `ubabench -benchjson` harness. maxRounds bounds RunRound calls;
// workers is Config.Workers (the workers=1 benchmark rows pass 1, the
// workers=max rows GOMAXPROCS).
// Errors are returned, not panicked, so a campaign driver embedding the
// fixture can fail one cell without killing the process.
func NewBroadcastBench(n, maxRounds, workers int) (*Network, *trace.Collector, error) {
	return newBroadcastBench(n, Config{MaxRounds: maxRounds, Workers: workers})
}

// newBroadcastBench is the fixture under cfg, with its own Collector.
func newBroadcastBench(n int, cfg Config) (*Network, *trace.Collector, error) {
	rng := rand.New(rand.NewSource(1))
	nodeIDs := ids.Sparse(rng, n)
	col := &trace.Collector{}
	cfg.Collector = col
	net := New(cfg)
	for _, id := range nodeIDs {
		if err := net.Add(&ChatterProcess{Ident: id}); err != nil {
			// Unreachable with ids.Sparse (no duplicates), but a
			// benchmark fixture must not be able to kill a campaign.
			return nil, nil, err
		}
	}
	return net, col, nil
}

// RoundPhases drives the two halves of a round — step and
// routing/delivery — in isolation on the broadcast-heavy fixture, so
// the phase-split benchmarks (BenchmarkStepPhase/BenchmarkRoutePhase
// and the `ubabench -benchjson`/`-perfsmoke` harness) can attribute
// time to the half that spends it. It lives in the library (not a
// _test.go file) so cmd/ubabench can run the identical workload.
type RoundPhases struct {
	net      *Network
	template []send // one round's unsorted, undeduped send stream
	bytes    []byte // the byte arena the template's offsets point into
	scratch  []send
}

// NewRoundPhases builds the phase-split fixture under cfg: n chatter
// processes plus a frozen template of one round's sends for RouteOnly.
// The fixture attaches its own Collector. The variations of cfg the
// route rows price against the plain fixture are an idle FaultPlan
// (non-nil but scheduling no events: the route path takes its
// fault-aware branches, no rule ever goes live) and an Observer (the
// route pass also builds the round record and hands it over). Like
// NewBroadcastBench, failures are returned rather than panicked.
func NewRoundPhases(n int, cfg Config) (*RoundPhases, error) {
	net, _, err := newBroadcastBench(n, cfg)
	if err != nil {
		return nil, err
	}
	rp := &RoundPhases{net: net}
	// One step phase seeds the route template. The template keeps the
	// pre-sort, pre-dedup stream, so every RouteOnly pays the full
	// block-sort + dedup + classify + delivery cost of a live round.
	net.round++
	outs, err := net.step()
	if err != nil {
		// Unreachable for chatter processes (they only broadcast, so the
		// contact rule has nothing to check, and there is no quota), but
		// returned so an embedding driver stays alive.
		net.Close()
		return nil, err
	}
	rp.template = append([]send(nil), outs...)
	rp.bytes = append([]byte(nil), net.arena...)
	return rp, nil
}

// StepOnly runs one step phase (every process steps, sends are merged
// in node order) without routing the result. Inboxes are empty, as in
// the first round of the full benchmark.
func (rp *RoundPhases) StepOnly() error {
	rp.net.round++
	_, err := rp.net.step()
	return err
}

// RouteOnly routes one frozen round's send stream — RunRound's own tail
// (Network.finishRound: accounting, block-local sort, dedup, arena
// sizing, delivery, observation) and its Collector flush — without
// stepping any process.
func (rp *RoundPhases) RouteOnly() {
	n := rp.net
	acct := n.finishRound(rp.nextSends())
	n.cfg.Collector.AddRound(n.round, acct.Broadcasts, acct.Unicasts, acct.Deliveries, acct.Bytes)
}

// nextSends opens the next round and returns a fresh copy of the
// template, so the in-place sort cannot make later rounds cheaper, with
// its bytes back in the network's byte arena, where the step merge
// would have put them.
func (rp *RoundPhases) nextSends() []send {
	n := rp.net
	n.round++
	n.roundEvents = n.roundEvents[:0]
	rp.scratch = grown(rp.scratch, len(rp.template))
	copy(rp.scratch, rp.template)
	n.arena = append(n.arena[:0], rp.bytes...)
	return rp.scratch
}

// Inbox returns the inbox the first node will step with next round, for
// a reader of the routed block (the reader=said rows call its Said).
func (rp *RoundPhases) Inbox() Inbox { return rp.net.live[0].inbox }

// Close retires the underlying network, recycling its round scratch.
func (rp *RoundPhases) Close() { rp.net.Close() }

// CampaignBench is the campaign-scale throughput fixture: jobs
// independent one-worker chatter networks multiplexed over one bounded
// scheduler, exactly the shape chaos.RunCampaign and `ubasweep -jobs`
// put on the engine. One RunChunk advances every simulation by a fixed
// number of rounds through a single scheduler phase (cap = jobs), so a
// benchmark op measures aggregate rounds across concurrent simulations,
// including the admission/fairness cost of the scheduler itself.
//
// The fixture owns its scheduler (budget = GOMAXPROCS at construction)
// rather than using sched.Default, so a row measures the budget of the
// host it runs on, not whatever budget the process singleton was first
// created with. The dispatch path — Scheduler.Run over a reused Phase —
// is the same code the campaign drivers use.
type CampaignBench struct {
	sched *sched.Scheduler
	nets  []*Network
	errs  []error
	chunk int
	phase sched.Phase
}

// NewCampaignBench builds jobs one-worker broadcast-bench networks of n
// chatter processes each. Failures are returned, not panicked, matching
// the other fixtures in this file.
func NewCampaignBench(jobs, n int) (*CampaignBench, error) {
	cb := &CampaignBench{
		sched: sched.New(runtime.GOMAXPROCS(0)),
		nets:  make([]*Network, jobs),
		errs:  make([]error, jobs),
	}
	for j := range cb.nets {
		net, _, err := NewBroadcastBench(n, DefaultMaxRounds, 1)
		if err != nil {
			cb.Close()
			return nil, err
		}
		cb.nets[j] = net
	}
	return cb, nil
}

// Run advances one simulation by the current chunk; it is the
// sched.Task body of the campaign phase. Each network has a worker cap
// of 1, so the rounds run inline on whichever worker (or submitter)
// claimed the index — parallelism comes only from the campaign layer,
// as in a real chaos campaign.
func (cb *CampaignBench) Run(i int) {
	net := cb.nets[i]
	for r := 0; r < cb.chunk; r++ {
		if err := net.RunRound(); err != nil {
			cb.errs[i] = err
			return
		}
	}
}

// RunChunk is one benchmark op: every simulation advances rounds rounds,
// dispatched as one scheduler phase with at most len(nets) in flight.
// After the first call the op is allocation-free in steady state: the
// Phase and its completion channel are reused, and each network's round
// buffers are already sized.
func (cb *CampaignBench) RunChunk(rounds int) error {
	cb.chunk = rounds
	cb.sched.Run(&cb.phase, cb, len(cb.nets), len(cb.nets))
	for _, err := range cb.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close releases every network's buffers and the fixture's scheduler.
func (cb *CampaignBench) Close() {
	for _, net := range cb.nets {
		if net != nil {
			net.Close()
		}
	}
	cb.sched.Close()
}
