// Package adversary is the Byzantine strategy library.
//
// The paper's model lets a faulty node do anything except forge the sender
// identifier on messages it transmits directly: it may stay silent, crash
// mid-protocol, send different contents to different receivers
// (equivocate), claim to have heard from non-existent nodes, replay
// across rounds, and address arbitrary subsets. Each strategy here is a
// simnet.Process registered via Network.AddByzantine, so the engine grants
// it the model's Byzantine allowances (no contact-rule check) while still
// stamping its true identifier on outgoing messages.
//
// Strategies are deterministic (seeded) so that every experiment is
// reproducible, and collusion is expressed by constructing all Byzantine
// processes of a run from one shared Directory, which fixes a common
// split of the correct nodes into two target halves.
package adversary

import (
	"math/rand"
	"slices"

	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Directory is the global knowledge a colluding Byzantine coalition has:
// every node identifier and which of them are Byzantine. The paper allows
// a Byzantine node to "behave as if it already knows all the nodes".
type Directory struct {
	all []ids.ID
	byz *ids.Set
}

// NewDirectory builds a directory from the complete id list and the
// Byzantine subset.
func NewDirectory(all []ids.ID, byzantine []ids.ID) *Directory {
	return &Directory{all: slices.Clone(all), byz: ids.NewSet(byzantine...)}
}

// All returns every node id.
func (d *Directory) All() []ids.ID {
	out := make([]ids.ID, len(d.all))
	copy(out, d.all)
	return out
}

// IsByzantine reports whether id belongs to the coalition.
func (d *Directory) IsByzantine(id ids.ID) bool {
	return d.byz.Contains(id)
}

// Correct returns the correct node ids in ascending order (d.all is kept
// sorted by the harness).
func (d *Directory) Correct() []ids.ID {
	out := make([]ids.ID, 0, len(d.all)-d.byz.Len())
	for _, id := range d.all {
		if !d.IsByzantine(id) {
			out = append(out, id)
		}
	}
	return out
}

// Halves splits the correct nodes into two deterministic target groups,
// the canonical equivocation split.
func (d *Directory) Halves() (a, b []ids.ID) {
	correct := d.Correct()
	mid := len(correct) / 2
	return correct[:mid], correct[mid:]
}

// Silent is a Byzantine node that never sends anything — the weakest
// adversary, equivalent to an initially-crashed node. It still occupies a
// slot in n (other nodes may never learn it exists).
type Silent struct {
	id ids.ID
}

var _ simnet.Process = (*Silent)(nil)

// NewSilent returns a silent Byzantine node.
func NewSilent(id ids.ID) *Silent { return &Silent{id: id} }

// ID implements simnet.Process.
func (s *Silent) ID() ids.ID { return s.id }

// Done implements simnet.Process.
func (s *Silent) Done() bool { return false }

// Step implements simnet.Process.
func (s *Silent) Step(*simnet.RoundEnv) {}

// Crash wraps a correct protocol process and crashes it after a given
// round: up to and including AfterRound it behaves correctly, afterwards
// it is silent forever (fail-stop inside a Byzantine slot).
type Crash struct {
	inner      simnet.Process
	afterRound int
}

var _ simnet.Process = (*Crash)(nil)

// NewCrash wraps inner, letting it act for rounds 1..afterRound.
func NewCrash(inner simnet.Process, afterRound int) *Crash {
	return &Crash{inner: inner, afterRound: afterRound}
}

// ID implements simnet.Process.
func (c *Crash) ID() ids.ID { return c.inner.ID() }

// Done implements simnet.Process. A crashed node never reports done: it
// lingers as dead weight, exactly like a real fail-stop fault.
func (c *Crash) Done() bool { return false }

// Step implements simnet.Process.
func (c *Crash) Step(env *simnet.RoundEnv) {
	if env.Round > c.afterRound {
		return
	}
	c.inner.Step(env)
}

// RBEquivocator attacks reliable broadcast as a two-faced source: in round
// 1 it sends (m₁, s) to one half of the correct nodes and (m₂, s) to the
// other, then it and any colluding peers echo each body only toward the
// half that saw it, trying to get one half to accept m₁ and the other m₂.
// The relay property says this must fail for n > 3f.
type RBEquivocator struct {
	id       ids.ID
	dir      *Directory
	isSource bool
	bodyA    []byte
	bodyB    []byte
	source   ids.ID
}

var _ simnet.Process = (*RBEquivocator)(nil)

// NewRBEquivocator returns an equivocating participant. source is the id
// of the coalition member playing the two-faced source (may be id itself,
// making this node the source).
func NewRBEquivocator(id ids.ID, dir *Directory, source ids.ID, bodyA, bodyB []byte) *RBEquivocator {
	return &RBEquivocator{
		id:       id,
		dir:      dir,
		isSource: id == source,
		source:   source,
		bodyA:    append([]byte(nil), bodyA...),
		bodyB:    append([]byte(nil), bodyB...),
	}
}

// ID implements simnet.Process.
func (e *RBEquivocator) ID() ids.ID { return e.id }

// Done implements simnet.Process.
func (e *RBEquivocator) Done() bool { return false }

// Step implements simnet.Process.
func (e *RBEquivocator) Step(env *simnet.RoundEnv) {
	halfA, halfB := e.dir.Halves()
	switch env.Round {
	case 1:
		if !e.isSource {
			env.Broadcast(wire.Present{})
			return
		}
		for _, to := range halfA {
			env.Send(to, wire.RBMessage{Source: e.source, Body: e.bodyA})
		}
		for _, to := range halfB {
			env.Send(to, wire.RBMessage{Source: e.source, Body: e.bodyB})
		}
	default:
		// Every coalition member relentlessly echoes each body toward
		// the half that saw it (and claims the echoes even though it
		// "received" nothing), maximizing split pressure.
		for _, to := range halfA {
			env.Send(to, wire.RBEcho{Source: e.source, Body: e.bodyA})
		}
		for _, to := range halfB {
			env.Send(to, wire.RBEcho{Source: e.source, Body: e.bodyB})
		}
	}
}

// EchoAmplifier echoes every reliable-broadcast body it has ever seen, to
// everyone, every round, and also echoes a body of its own invention that
// no source ever broadcast — probing the unforgeability property.
type EchoAmplifier struct {
	id     ids.ID
	forged wire.RBEcho
	seen   map[string]wire.RBEcho
}

var _ simnet.Process = (*EchoAmplifier)(nil)

// NewEchoAmplifier returns an amplifier that additionally pushes a forged
// echo claiming forgedSource broadcast forgedBody.
func NewEchoAmplifier(id ids.ID, forgedSource ids.ID, forgedBody []byte) *EchoAmplifier {
	return &EchoAmplifier{
		id:     id,
		forged: wire.RBEcho{Source: forgedSource, Body: append([]byte(nil), forgedBody...)},
		seen:   make(map[string]wire.RBEcho),
	}
}

// ID implements simnet.Process.
func (a *EchoAmplifier) ID() ids.ID { return a.id }

// Done implements simnet.Process.
func (a *EchoAmplifier) Done() bool { return false }

// Step implements simnet.Process.
func (a *EchoAmplifier) Step(env *simnet.RoundEnv) {
	for m := range env.Inbox.All() {
		switch p := m.Payload.(type) {
		case wire.RBMessage:
			a.seen[string(wire.Encode(wire.RBEcho{Source: p.Source, Body: p.Body}))] =
				wire.RBEcho{Source: p.Source, Body: p.Body}
		case wire.RBEcho:
			a.seen[string(wire.Encode(p))] = p
		}
	}
	env.Broadcast(a.forged)
	for _, echo := range a.seen {
		env.Broadcast(echo)
	}
}

// GhostCandidate attacks the rotor-coordinator: it echoes identifiers of
// nodes that do not exist ("a Byzantine node can claim to have received
// messages from other, possibly non-existent, nodes"), feeding each ghost
// to only half the correct nodes so candidate sets diverge, and paces the
// ghosts one per round to maximize the number of non-silent rounds — the
// exact adversary the proof of Lemma 4 charges against the 2f budget.
type GhostCandidate struct {
	id     ids.ID
	dir    *Directory
	ghosts []ids.ID
	repeat int
	sent   int
}

var _ simnet.Process = (*GhostCandidate)(nil)

// NewGhostCandidate returns a ghost-echoing attacker advertising the given
// non-existent ids, one per round.
func NewGhostCandidate(id ids.ID, dir *Directory, ghosts []ids.ID) *GhostCandidate {
	return NewGhostCandidateRepeat(id, dir, ghosts, 1)
}

// NewGhostCandidateRepeat sends each ghost for `repeat` consecutive
// rounds. At the resiliency boundary (n = 3f) a two-round push lets the
// coalition lift one half of the network past the 2n/3 acceptance
// threshold a round before the other half, sustaining a candidate-set
// skew — the sharper probe used by experiment E21.
func NewGhostCandidateRepeat(id ids.ID, dir *Directory, ghosts []ids.ID, repeat int) *GhostCandidate {
	if repeat < 1 {
		repeat = 1
	}
	return &GhostCandidate{
		id:     id,
		dir:    dir,
		ghosts: append([]ids.ID(nil), ghosts...),
		repeat: repeat,
	}
}

// ID implements simnet.Process.
func (g *GhostCandidate) ID() ids.ID { return g.id }

// Done implements simnet.Process.
func (g *GhostCandidate) Done() bool { return false }

// Step implements simnet.Process.
func (g *GhostCandidate) Step(env *simnet.RoundEnv) {
	switch env.Round {
	case 1:
		// Participate in the init round so the coalition is counted
		// in every n_v (raising thresholds against itself is the
		// stronger play here: it also becomes a coordinator
		// candidate that will waste a rotor slot by staying silent).
		env.Broadcast(wire.Init{})
	case 2:
		// Echo only its own candidacy; stay quiet about everyone
		// else to slow candidate dissemination.
		env.Broadcast(wire.IDEcho{Candidate: g.id})
	default:
		idx := g.sent / g.repeat
		if idx >= len(g.ghosts) {
			return
		}
		ghost := g.ghosts[idx]
		g.sent++
		halfA, _ := g.dir.Halves()
		for _, to := range halfA {
			env.Send(to, wire.IDEcho{Candidate: ghost})
		}
	}
}

// SplitVoter attacks consensus (Algorithm 3): it joins the census in the
// init rounds, then in every phase sends input/prefer/strongprefer for
// value A to one half of the correct nodes and for value B to the other,
// and when it happens to be selected coordinator it equivocates its
// opinion the same way.
type SplitVoter struct {
	id   ids.ID
	dir  *Directory
	valA wire.Value
	valB wire.Value
}

var _ simnet.Process = (*SplitVoter)(nil)

// NewSplitVoter returns a consensus split-voter pushing valA and valB.
func NewSplitVoter(id ids.ID, dir *Directory, valA, valB wire.Value) *SplitVoter {
	return &SplitVoter{id: id, dir: dir, valA: valA, valB: valB}
}

// ID implements simnet.Process.
func (s *SplitVoter) ID() ids.ID { return s.id }

// Done implements simnet.Process.
func (s *SplitVoter) Done() bool { return false }

// Step implements simnet.Process.
func (s *SplitVoter) Step(env *simnet.RoundEnv) {
	halfA, halfB := s.dir.Halves()
	split := func(mk func(x wire.Value) wire.Payload) {
		for _, to := range halfA {
			env.Send(to, mk(s.valA))
		}
		for _, to := range halfB {
			env.Send(to, mk(s.valB))
		}
	}
	switch {
	case env.Round == 1:
		env.Broadcast(wire.Init{})
	case env.Round == 2:
		env.Broadcast(wire.IDEcho{Candidate: s.id})
	default:
		// Phase grid of Algorithm 3: loop starts at round 3, phases
		// are 5 rounds: input, prefer, strongprefer, rotor, resolve.
		switch (env.Round - 3) % 5 {
		case 0:
			split(func(x wire.Value) wire.Payload { return wire.Input{X: x} })
		case 1:
			split(func(x wire.Value) wire.Payload { return wire.Prefer{X: x} })
		case 2:
			split(func(x wire.Value) wire.Payload { return wire.StrongPrefer{X: x} })
		case 3:
			// Rotor round: if selected coordinator, a correct node
			// would broadcast one opinion; equivocate instead.
			split(func(x wire.Value) wire.Payload { return wire.Opinion{X: x} })
		}
	}
}

// InputSplitter attacks approximate agreement: in every round it sends
// input value A to one half of the correct nodes and value B to the
// other, the strongest single-message attack on the reduction rule (it
// pulls the two halves' extremes in opposite directions).
type InputSplitter struct {
	id   ids.ID
	dir  *Directory
	valA float64
	valB float64
}

var _ simnet.Process = (*InputSplitter)(nil)

// NewInputSplitter returns an approximate-agreement splitter.
func NewInputSplitter(id ids.ID, dir *Directory, valA, valB float64) *InputSplitter {
	return &InputSplitter{id: id, dir: dir, valA: valA, valB: valB}
}

// ID implements simnet.Process.
func (s *InputSplitter) ID() ids.ID { return s.id }

// Done implements simnet.Process.
func (s *InputSplitter) Done() bool { return false }

// Step implements simnet.Process.
func (s *InputSplitter) Step(env *simnet.RoundEnv) {
	halfA, halfB := s.dir.Halves()
	for _, to := range halfA {
		env.Send(to, wire.Input{X: wire.V(s.valA)})
	}
	for _, to := range halfB {
		env.Send(to, wire.Input{X: wire.V(s.valB)})
	}
}

// RandomNoise sends syntactically valid but randomly chosen payloads to
// random subsets each round — a fuzzing adversary that checks robustness
// rather than any particular attack.
type RandomNoise struct {
	id  ids.ID
	dir *Directory
	rng *rand.Rand
}

var _ simnet.Process = (*RandomNoise)(nil)

// NewRandomNoise returns a seeded fuzzing adversary.
func NewRandomNoise(id ids.ID, dir *Directory, seed int64) *RandomNoise {
	return &RandomNoise{id: id, dir: dir, rng: rand.New(rand.NewSource(seed))}
}

// ID implements simnet.Process.
func (r *RandomNoise) ID() ids.ID { return r.id }

// Done implements simnet.Process.
func (r *RandomNoise) Done() bool { return false }

// Step implements simnet.Process.
func (r *RandomNoise) Step(env *simnet.RoundEnv) {
	all := r.dir.All()
	payloads := []func() wire.Payload{
		func() wire.Payload { return wire.Present{} },
		func() wire.Payload { return wire.Init{} },
		func() wire.Payload { return wire.Input{X: wire.V(float64(r.rng.Intn(5)))} },
		func() wire.Payload { return wire.Prefer{X: wire.V(float64(r.rng.Intn(5)))} },
		func() wire.Payload { return wire.StrongPrefer{X: wire.V(float64(r.rng.Intn(5)))} },
		func() wire.Payload { return wire.IDEcho{Candidate: all[r.rng.Intn(len(all))]} },
		func() wire.Payload { return wire.Opinion{X: wire.V(float64(r.rng.Intn(5)))} },
		func() wire.Payload {
			return wire.RBEcho{Source: all[r.rng.Intn(len(all))], Body: []byte{byte(r.rng.Intn(4))}}
		},
	}
	for i := 0; i < 1+r.rng.Intn(3); i++ {
		p := payloads[r.rng.Intn(len(payloads))]()
		if r.rng.Intn(2) == 0 {
			env.Broadcast(p)
			continue
		}
		env.Send(all[r.rng.Intn(len(all))], p)
	}
}
