package main

// adapter.go is the only file of the benchmark that imports
// uba/internal/...: the bare-network control, the campaign entry
// point, and the traced harness that rebuilds the facade's clusters
// from the internal constructors with timing proxies around
// simnet.Process.Step and simnet.RoundObserver. Everything else in
// this package sees the small surface declared here, so a refactor of
// the engine's observation surface or scenario types needs a change to
// this file alone.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"uba"
	"uba/internal/adversary"
	"uba/internal/chaos"
	"uba/internal/core/consensus"
	"uba/internal/core/ordering"
	"uba/internal/ids"
	"uba/internal/oracle"
	"uba/internal/simnet"
	"uba/internal/simnet/sched"
	"uba/internal/trace"
	"uba/internal/wire"
)

// simStats are the simulated statistics of one op. They are a
// deterministic function of the op's inputs, so they must repeat
// exactly between runs and between commits that only change speed.
// Runs is set by the campaign alone, whose API exposes nothing else.
type simStats struct {
	Rounds     int   `json:"rounds"`
	Broadcasts int64 `json:"broadcasts"`
	Unicasts   int64 `json:"unicasts"`
	Deliveries int64 `json:"deliveries"`
	Bytes      int64 `json:"bytes"`
	Runs       int   `json:"runs,omitempty"`
}

func statsOf(r trace.Report) simStats {
	return simStats{
		Rounds: r.Rounds, Broadcasts: r.Broadcasts, Unicasts: r.Unicasts,
		Deliveries: r.Deliveries, Bytes: r.Bytes,
	}
}

// layers is what one traced op measured, in nanoseconds and counts.
type layers struct {
	OpNS, BuildNS, RunNS   int64
	CloseNS                int64
	StepNS, Steps          int64
	ObserveNS, ObserveCall int64
	Events                 int64
	AllocBytes             uint64
	Stats                  simStats
}

// engineNS is the engine's self time: the rounds minus what ran inside
// the proxied Step and observer calls (merge, accounting, routing and,
// when an observer is attached, materializing its trace events).
func (l layers) engineNS() int64 { return l.RunNS - l.StepNS - l.ObserveNS }

// collectNS is the facade-level remainder of the op: reading outputs,
// comparing them, and for a session the calls between rounds.
func (l layers) collectNS() int64 { return l.OpNS - l.BuildNS - l.RunNS - l.CloseNS }

// stepProxy times a correct node's Step from outside. It forwards env
// synchronously and writes only its own fields.
type stepProxy struct {
	inner simnet.Process
	ns    int64
	calls int64
}

func (p *stepProxy) ID() ids.ID { return p.inner.ID() }
func (p *stepProxy) Done() bool { return p.inner.Done() }
func (p *stepProxy) Step(env *simnet.RoundEnv) {
	start := time.Now()
	p.inner.Step(env)
	p.ns += int64(time.Since(start))
	p.calls++
}

// observerProxy times the facade's observer (the oracle suite) and
// counts the trace events the engine materialized for it.
type observerProxy struct {
	inner  *oracle.Suite
	ns     int64
	calls  int64
	events int64
}

func (o *observerProxy) ObserveRound(round int, events []trace.Event) {
	start := time.Now()
	o.inner.ObserveRound(round, events)
	o.ns += int64(time.Since(start))
	o.calls++
	o.events += int64(len(events))
}

func (o *observerProxy) ObserveRoundStats(round int, acct simnet.RoundAccounting) {
	start := time.Now()
	o.inner.ObserveRoundStats(round, acct)
	o.ns += int64(time.Since(start))
	o.calls++
}

// tracedNet is a network built the way the facade builds it, with the
// proxies in place. With observe false it is the observer-less harness:
// same nodes, same collector, no oracle suite, so no trace events.
type tracedNet struct {
	net       *simnet.Network
	collector *trace.Collector
	suite     *oracle.Suite
	obs       *observerProxy
	procs     []*stepProxy
	log       *spanLog
	op        int
	opSpan    int
	start     time.Time
	alloc0    uint64
	l         layers
}

func newTracedNet(family string, observe bool, log *spanLog, op int) *tracedNet {
	t := &tracedNet{collector: &trace.Collector{}, log: log, op: op}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.alloc0 = ms.TotalAlloc
	t.start = time.Now()
	t.opSpan = log.add(op, 0, "op", t.start, 0)
	cfg := simnet.Config{Collector: t.collector}
	if observe {
		t.suite = oracle.NewSuite(oracle.NewComplexityFor(family, 0))
		t.obs = &observerProxy{inner: t.suite}
		cfg.Observer = t.obs
	}
	t.net = simnet.New(cfg)
	return t
}

func (t *tracedNet) add(p simnet.Process) error {
	sp := &stepProxy{inner: p}
	t.procs = append(t.procs, sp)
	return t.net.Add(sp)
}

// built closes the build span: everything since the op started.
func (t *tracedNet) built() {
	d := time.Since(t.start)
	t.l.BuildNS = int64(d)
	t.log.add(t.op, t.opSpan, "build", t.start, d)
}

// round runs one round under a span and harvests the proxies.
func (t *tracedNet) round(parent int) error {
	start := time.Now()
	err := t.net.RunRound()
	d := time.Since(start)
	var stepNS int64
	for _, p := range t.procs {
		stepNS += p.ns
		t.l.Steps += p.calls
		p.ns, p.calls = 0, 0
	}
	t.l.RunNS += int64(d)
	t.l.StepNS += stepNS
	id := t.log.add(t.op, parent, "round", start, d)
	t.log.add(t.op, id, "step-sum", start, time.Duration(stepNS))
	if t.obs != nil {
		obsNS := t.obs.ns
		t.obs.ns = 0
		t.l.ObserveNS += obsNS
		t.log.add(t.op, id, "observe", start.Add(d-time.Duration(obsNS)), time.Duration(obsNS))
	}
	if err == nil && t.suite != nil && t.suite.Failed() {
		v := t.suite.First()
		err = fmt.Errorf("%s oracle fired in round %d: %s", v.Oracle, v.Round, v.Detail)
	}
	return err
}

// finish closes the op span and returns what was measured.
func (t *tracedNet) finish() layers {
	// Close parks the network's round buffers in the scratch pool after
	// clearing them, which with an observer's event buffers is not free.
	closing := time.Now()
	t.net.Close()
	t.l.CloseNS = int64(time.Since(closing))
	t.log.add(t.op, t.opSpan, "close", closing, time.Duration(t.l.CloseNS))
	d := time.Since(t.start)
	t.l.OpNS = int64(d)
	t.log.close(t.opSpan, d)
	if t.obs != nil {
		t.l.ObserveCall, t.l.Events = t.obs.calls, t.obs.events
	}
	t.l.Stats = statsOf(t.collector.Report())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.l.AllocBytes = ms.TotalAlloc - t.alloc0
	return t.l
}

// consensusNodes builds what uba.Consensus builds for a silent
// coalition: one consensus node per input and byz silent processes, on
// the id layout the facade derives from the seed.
func consensusNodes(seed int64, inputs []float64, byz int) (nodes []*consensus.Node, correct []ids.ID, silent []simnet.Process) {
	all := ids.Sparse(rand.New(rand.NewSource(seed)), len(inputs)+byz)
	correct = all[:len(inputs)]
	for i, id := range correct {
		nodes = append(nodes, consensus.New(id, wire.V(inputs[i])))
	}
	for _, id := range all[len(inputs):] {
		silent = append(silent, adversary.NewSilent(id))
	}
	return nodes, correct, silent
}

// populate registers the consensus nodes through add (the network's
// own Add, or the traced net's proxying one) and the silent coalition
// as Byzantine.
func populate(net *simnet.Network, add func(simnet.Process) error, nodes []*consensus.Node, silent []simnet.Process) error {
	for _, n := range nodes {
		if err := add(n); err != nil {
			return err
		}
	}
	for _, p := range silent {
		if err := net.AddByzantine(p); err != nil {
			return err
		}
	}
	return nil
}

// commonDecision returns the value every node decided.
func commonDecision(nodes []*consensus.Node) (float64, error) {
	var first wire.Value
	for i, n := range nodes {
		out, ok := n.Output()
		if !ok {
			return 0, fmt.Errorf("node %v did not decide", n.ID())
		}
		if i == 0 {
			first = out
		} else if !out.Equal(first) {
			return 0, fmt.Errorf("nodes disagreed: %v vs %v", first, out)
		}
	}
	return first.X, nil
}

// bareConsensus is the control workload's op: the facade's nodes on a
// bare network with a collector and nothing else attached.
func bareConsensus(seed int64, inputs []float64, byz int) (float64, simStats, error) {
	nodes, correct, silent := consensusNodes(seed, inputs, byz)
	collector := &trace.Collector{}
	net := simnet.New(simnet.Config{Collector: collector})
	defer net.Close()
	if err := populate(net, net.Add, nodes, silent); err != nil {
		return 0, simStats{}, err
	}
	if _, err := net.Run(simnet.AllDone(correct)); err != nil {
		return 0, simStats{}, err
	}
	decision, err := commonDecision(nodes)
	return decision, statsOf(collector.Report()), err
}

// tracedConsensus runs the same consensus through the proxy harness:
// with observe it is uba.Consensus from the outside, without it is
// bareConsensus from the outside.
func tracedConsensus(seed int64, inputs []float64, byz int, observe bool, log *spanLog, op int) (float64, layers, error) {
	t := newTracedNet("consensus", observe, log, op)
	nodes, correct, silent := consensusNodes(seed, inputs, byz)
	if err := populate(t.net, t.add, nodes, silent); err != nil {
		return 0, t.finish(), err
	}
	t.built()

	runStart := time.Now()
	runSpan := t.log.add(op, t.opSpan, "run", runStart, 0)
	stop := simnet.AllDone(correct)
	for {
		if err := t.round(runSpan); err != nil {
			return 0, t.finish(), err
		}
		if stop(t.net) {
			break
		}
		if t.net.Round() >= simnet.DefaultMaxRounds {
			return 0, t.finish(), simnet.ErrMaxRounds
		}
	}
	// The run span is the loop, stop checks included; the rounds are
	// its children.
	d := time.Since(runStart)
	t.l.RunNS = int64(d)
	t.log.close(runSpan, d)

	decision, err := commonDecision(nodes)
	return decision, t.finish(), err
}

// tracedOrdering is uba.OrderingCluster rebuilt over a tracedNet; it
// offers the methods the ordering session drives.
type tracedOrdering struct {
	t       *tracedNet
	rng     *rand.Rand
	nodes   map[uint64]*ordering.Node
	members []uint64
}

func newTracedOrdering(seed int64, correct, byz int, observe bool, log *spanLog, op int) (*tracedOrdering, error) {
	t := newTracedNet("ordering", observe, log, op)
	all := ids.Sparse(rand.New(rand.NewSource(seed)), correct+byz)
	set := ids.NewSet(all...)
	o := &tracedOrdering{
		t:     t,
		rng:   rand.New(rand.NewSource(seed + 7919)),
		nodes: make(map[uint64]*ordering.Node, correct),
	}
	for _, id := range all[:correct] {
		node, err := ordering.NewFounder(id, set)
		if err == nil {
			err = t.add(node)
		}
		if err != nil {
			t.net.Close()
			return nil, err
		}
		o.nodes[uint64(id)] = node
		o.members = append(o.members, uint64(id))
	}
	for _, id := range all[correct:] {
		if err := t.net.AddByzantine(adversary.NewSilent(id)); err != nil {
			t.net.Close()
			return nil, err
		}
	}
	t.built()
	return o, nil
}

func (o *tracedOrdering) Members() []uint64 { return append([]uint64(nil), o.members...) }

func (o *tracedOrdering) RunRounds(rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := o.t.round(o.t.opSpan); err != nil {
			return err
		}
	}
	return nil
}

var errUnknownMember = errors.New("unknown member")

func (o *tracedOrdering) SubmitEvent(member uint64, value float64) error {
	node, ok := o.nodes[member]
	if !ok {
		return errUnknownMember
	}
	node.SubmitEvent(value)
	return nil
}

func (o *tracedOrdering) Join() (uint64, error) {
	id := ids.Sparse(o.rng, 1)[0]
	node, err := ordering.NewJoiner(id)
	if err != nil {
		return 0, err
	}
	if err := o.t.add(node); err != nil {
		return 0, err
	}
	o.nodes[uint64(id)] = node
	o.members = append(o.members, uint64(id))
	return uint64(id), nil
}

func (o *tracedOrdering) Leave(member uint64) error {
	node, ok := o.nodes[member]
	if !ok {
		return errUnknownMember
	}
	node.Leave()
	return nil
}

func (o *tracedOrdering) Chain(member uint64) ([]uba.Event, error) {
	node, ok := o.nodes[member]
	if !ok {
		return nil, errUnknownMember
	}
	chain := node.Chain()
	out := make([]uba.Event, 0, len(chain))
	for _, e := range chain {
		out = append(out, uba.Event{Round: e.Round, Submitter: uint64(e.Submitter), Value: e.Value})
	}
	return out, nil
}

func (o *tracedOrdering) FinalizedThrough(member uint64) (uint64, error) {
	node, ok := o.nodes[member]
	if !ok {
		return 0, errUnknownMember
	}
	return node.FinalizedThrough(), nil
}

func (o *tracedOrdering) finish() layers { return o.t.finish() }

// campaignSpec sizes the chaos campaign; the arenas are always
// chaos.DefaultCampaign's six families.
type campaignSpec struct {
	Seeds, Correct, Byzantine, MaxRounds int
}

// cells is how many scenarios one campaign runs.
func (c campaignSpec) cells() int { return len(chaos.DefaultCampaign().Arenas) * c.Seeds }

func (c campaignSpec) config(jobs int) chaos.CampaignConfig {
	cfg := chaos.DefaultCampaign()
	cfg.Seeds, cfg.Correct, cfg.Byzantine, cfg.MaxRounds = c.Seeds, c.Correct, c.Byzantine, c.MaxRounds
	cfg.Faults = chaos.FaultsByzantine
	cfg.Jobs = jobs
	return cfg
}

// runCampaign is the campaign workload's op. jobs 0 lets the campaign
// use GOMAXPROCS cells at once, the only place parallelism enters the
// benchmark; jobs 1 runs the cells inline.
func runCampaign(spec campaignSpec, jobs int) (simStats, error) {
	rep, err := chaos.RunCampaign(spec.config(jobs), nil)
	if err != nil {
		return simStats{}, err
	}
	if !rep.Clean() {
		return simStats{}, fmt.Errorf("campaign not clean: %d repros, %d errors", len(rep.Repros), len(rep.Errors))
	}
	return simStats{Runs: rep.Runs}, nil
}

// campaignLayers is one traced campaign op: the cells rebuilt the way
// RunCampaign builds them and run inline one at a time.
type campaignLayers struct {
	OpNS    int64
	PlanNS  int64
	ArenaNS map[string]int64 // total over the arena's cells
	Cells   int
	Rounds  int
}

func tracedCampaign(spec campaignSpec, log *spanLog, op int) (campaignLayers, error) {
	cl := campaignLayers{ArenaNS: make(map[string]int64)}
	cfg := spec.config(1)
	opStart := time.Now()
	opSpan := log.add(op, 0, "op", opStart, 0)
	for _, arena := range cfg.Arenas {
		for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
			planStart := time.Now()
			s := chaos.Scenario{
				Arena:     arena,
				Correct:   cfg.Correct,
				Seed:      seed,
				MaxRounds: cfg.MaxRounds,
				Slots:     chaos.NewCoalition(arena, nil, seed*101+int64(arena)).Plan(cfg.Byzantine, true),
			}
			s.Faults = chaos.PlanFaults(s)
			planned := time.Now()
			out, err := chaos.Run(s)
			ran := time.Since(planned)
			if err != nil {
				return cl, fmt.Errorf("%v/seed=%d: %w", arena, seed, err)
			}
			if len(out.Violations) > 0 {
				v := out.Violations[0]
				return cl, fmt.Errorf("%v/seed=%d: %s fired in round %d", arena, seed, v.Oracle, v.Round)
			}
			cl.PlanNS += int64(planned.Sub(planStart))
			cl.ArenaNS[arena.String()] += int64(ran)
			cl.Cells++
			cl.Rounds += out.Rounds
			log.add(op, opSpan, "plan", planStart, planned.Sub(planStart))
			log.add(op, opSpan, "cell."+arena.String(), planned, ran)
		}
	}
	d := time.Since(opStart)
	cl.OpNS = int64(d)
	log.close(opSpan, d)
	return cl, nil
}

// netSetupNS times simnet.New, one Add per node and Close with no
// round run: the fixed cost every network pays, 24 times per campaign
// op and once per one-shot run.
func netSetupNS(seed int64, correct, byz int) (int64, error) {
	inputs := make([]float64, correct)
	nodes, _, silent := consensusNodes(seed, inputs, byz)
	start := time.Now()
	net := simnet.New(simnet.Config{Collector: &trace.Collector{}})
	err := populate(net, net.Add, nodes, silent)
	net.Close()
	return int64(time.Since(start)), err
}

// wirePayloads are the payload kinds a consensus run sends.
var wirePayloads = []wire.Payload{
	wire.Init{},
	wire.IDEcho{Instance: 3, Candidate: 1 << 40},
	wire.Opinion{Instance: 3, X: wire.V(1)},
	wire.Input{X: wire.V(1)},
	wire.Prefer{X: wire.V(0)},
	wire.StrongPrefer{X: wire.V(1)},
	wire.NoPreference{},
	wire.NoStrongPreference{},
}

// wireCostNS returns the mean cost of one wire.Encode and one
// wire.Decode over wirePayloads, from rounds passes over the set.
func wireCostNS(rounds int) (encode, decode float64, err error) {
	encoded := make([][]byte, len(wirePayloads))
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, p := range wirePayloads {
			encoded[i] = wire.Encode(p)
		}
	}
	encode = float64(time.Since(start)) / float64(rounds*len(wirePayloads))
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, e := range encoded {
			if _, err := wire.Decode(e); err != nil {
				return 0, 0, err
			}
		}
	}
	decode = float64(time.Since(start)) / float64(rounds*len(wirePayloads))
	return encode, decode, nil
}

type emptyTask struct{}

func (emptyTask) Run(int) {}

// schedDispatchNS returns the mean cost of dispatching one phase of
// cells empty tasks through the process-wide scheduler at the cap the
// campaign uses, i.e. the scheduling overhead with no work to hide it.
func schedDispatchNS(cells, rounds int) float64 {
	var phase sched.Phase
	s := sched.Default()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		s.Run(&phase, emptyTask{}, cells, runtime.GOMAXPROCS(0))
	}
	return float64(time.Since(start)) / float64(rounds)
}
