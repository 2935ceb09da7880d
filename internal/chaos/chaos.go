// Package chaos builds randomly composed Byzantine coalitions and runs
// every protocol of the library against them — metamorphic robustness
// testing beyond the hand-crafted attacks of the adversary package.
//
// The paper's model lets each faulty node behave arbitrarily and
// *differently*: a coalition is not one strategy but f independent ones,
// possibly coordinating. A chaos coalition assigns each Byzantine slot a
// strategy drawn from the full library (silent, crash-wrapped-correct,
// equivocators, ghost injectors, impersonators, terminate spoofers,
// membership churners, noise), deterministically from a seed, so a
// failure reproduces exactly.
//
// A coalition is described before it is built: Plan produces serializable
// SlotSpec values (one per Byzantine slot) and Materialize turns a spec
// into a live process. The split is what makes failure *shrinking*
// possible (see shrink.go): a delta-debugger can drop or simplify slots
// of a failing scenario and re-run it, and a minimal repro can be written
// to JSON and replayed later (`ubasim -repro`).
package chaos

import (
	"fmt"
	"math/rand"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/simnet"
	"uba/internal/wire"
)

// Arena names the protocol family under attack, so the composer can pick
// strategies that speak that protocol's message vocabulary (every
// strategy is *valid* against every protocol — stray messages are just
// ignored — but targeted strategies stress the interesting paths).
type Arena int

// Arenas.
const (
	// ArenaBroadcast targets reliable broadcast (Algorithm 1).
	ArenaBroadcast Arena = iota + 1
	// ArenaRotor targets the rotor-coordinator (Algorithm 2).
	ArenaRotor
	// ArenaConsensus targets consensus and parallel consensus
	// (Algorithms 3 and 5).
	ArenaConsensus
	// ArenaApprox targets approximate agreement (Algorithm 4).
	ArenaApprox
	// ArenaRenaming targets Byzantine renaming.
	ArenaRenaming
	// ArenaOrdering targets the dynamic total-ordering protocol.
	ArenaOrdering
)

// String names the arena for logs and repro files.
func (a Arena) String() string {
	switch a {
	case ArenaBroadcast:
		return "broadcast"
	case ArenaRotor:
		return "rotor"
	case ArenaConsensus:
		return "consensus"
	case ArenaApprox:
		return "approx"
	case ArenaRenaming:
		return "renaming"
	case ArenaOrdering:
		return "ordering"
	default:
		return fmt.Sprintf("arena(%d)", int(a))
	}
}

// Strategy names for SlotSpec, stable because they appear in repro JSON.
const (
	// StrategySilent never sends anything.
	StrategySilent = "silent"
	// StrategyNoise sends seeded random valid payloads.
	StrategyNoise = "noise"
	// StrategyCrash runs a correct twin, then fail-stops.
	StrategyCrash = "crash"
	// StrategyRBEquivocator plays the two-faced reliable-broadcast source.
	StrategyRBEquivocator = "rbequivocator"
	// StrategyEchoAmplifier amplifies echoes and forges one.
	StrategyEchoAmplifier = "echoamplifier"
	// StrategyGhost echoes non-existent candidate identifiers.
	StrategyGhost = "ghost"
	// StrategyImpersonator claims coordinatorship with a fixed opinion.
	StrategyImpersonator = "impersonator"
	// StrategyTerminateSpoofer spoofs renaming's terminate messages.
	StrategyTerminateSpoofer = "terminatespoofer"
	// StrategySplitVoter split-votes every consensus phase.
	StrategySplitVoter = "splitvoter"
	// StrategyInputSplitter splits approximate-agreement inputs.
	StrategyInputSplitter = "inputsplitter"
	// StrategyChurner flaps dynamic-network membership views.
	StrategyChurner = "churner"
)

// strategies lists every Strategy* name Materialize builds.
var strategies = []string{
	StrategySilent, StrategyNoise, StrategyCrash, StrategyRBEquivocator,
	StrategyEchoAmplifier, StrategyGhost, StrategyImpersonator,
	StrategyTerminateSpoofer, StrategySplitVoter, StrategyInputSplitter,
	StrategyChurner,
}

// SlotSpec is the serializable description of one Byzantine slot: which
// strategy it runs and the seed from which all of the strategy's own
// random choices (victims, values, ghosts) are derived. Together with the
// scenario seed (which fixes the id layout) a slice of SlotSpec
// reconstructs a coalition exactly.
type SlotSpec struct {
	// Strategy is one of the Strategy* constants.
	Strategy string `json:"strategy"`
	// Seed drives the strategy's internal random choices.
	Seed int64 `json:"seed,omitempty"`
	// Crash is the last active round for StrategyCrash slots.
	Crash int `json:"crash,omitempty"`
}

// Coalition builds the Byzantine processes for one run.
type Coalition struct {
	rng   *rand.Rand
	arena Arena
	dir   *adversary.Directory
}

// NewCoalition returns a deterministic coalition composer. dir may be nil
// if only Plan is used (Materialize needs the directory).
func NewCoalition(arena Arena, dir *adversary.Directory, seed int64) *Coalition {
	return &Coalition{
		rng:   rand.New(rand.NewSource(seed)),
		arena: arena,
		dir:   dir,
	}
}

// Plan assigns a strategy to each of `slots` Byzantine slots, drawing
// from the arena's strategy pool. withTwin controls whether crash-wrapped
// correct twins may be assigned (pass false when the caller cannot build
// a correct twin process for a slot).
func (c *Coalition) Plan(slots int, withTwin bool) []SlotSpec {
	pool := []string{StrategySilent, StrategyNoise}
	if withTwin {
		pool = append(pool, StrategyCrash)
	}
	switch c.arena {
	case ArenaBroadcast:
		pool = append(pool, StrategyRBEquivocator, StrategyEchoAmplifier)
	case ArenaRotor:
		pool = append(pool, StrategyGhost, StrategyImpersonator)
	case ArenaRenaming:
		pool = append(pool, StrategyGhost, StrategyImpersonator, StrategyTerminateSpoofer)
	case ArenaConsensus:
		pool = append(pool, StrategySplitVoter, StrategyImpersonator)
	case ArenaApprox:
		pool = append(pool, StrategyInputSplitter)
	case ArenaOrdering:
		pool = append(pool, StrategyChurner)
	}
	out := make([]SlotSpec, 0, slots)
	for i := 0; i < slots; i++ {
		spec := SlotSpec{Strategy: pool[c.rng.Intn(len(pool))], Seed: c.rng.Int63()}
		if spec.Strategy == StrategyCrash {
			spec.Crash = 1 + c.rng.Intn(12)
		}
		out = append(out, spec)
	}
	return out
}

// Materialize builds the live Byzantine process for one slot. byzIDs is
// the full coalition (colluding strategies reference their peers),
// correctTwin builds a correct protocol node for crash slots (nil
// forbids StrategyCrash).
func Materialize(spec SlotSpec, id ids.ID, byzIDs []ids.ID, dir *adversary.Directory, correctTwin func(id ids.ID) simnet.Process) (simnet.Process, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	switch spec.Strategy {
	case StrategySilent:
		return adversary.NewSilent(id), nil
	case StrategyNoise:
		return adversary.NewRandomNoise(id, dir, spec.Seed), nil
	case StrategyCrash:
		if correctTwin == nil {
			return nil, fmt.Errorf("chaos: crash slot %d needs a correct twin", id)
		}
		crash := spec.Crash
		if crash < 1 {
			crash = 1
		}
		return adversary.NewCrash(correctTwin(id), crash), nil
	case StrategyRBEquivocator:
		return adversary.NewRBEquivocator(id, dir, byzIDs[0], []byte("cA"), []byte("cB")), nil
	case StrategyEchoAmplifier:
		correct := dir.Correct()
		victim := correct[rng.Intn(len(correct))]
		return adversary.NewEchoAmplifier(id, victim, []byte("chaos-forged")), nil
	case StrategyGhost:
		ghosts := ids.Sparse(rand.New(rand.NewSource(rng.Int63())), 6)
		return adversary.NewGhostCandidate(id, dir, ghosts), nil
	case StrategyImpersonator:
		return adversary.NewImpersonator(id, wire.V(float64(rng.Intn(9))), []uint64{0}), nil
	case StrategyTerminateSpoofer:
		return adversary.NewTerminateSpoofer(id), nil
	case StrategySplitVoter:
		return adversary.NewSplitVoter(id, dir,
			wire.V(float64(rng.Intn(3))), wire.V(float64(3+rng.Intn(3)))), nil
	case StrategyInputSplitter:
		mag := float64(uint64(1) << uint(10+rng.Intn(40)))
		return adversary.NewInputSplitter(id, dir, -mag, mag), nil
	case StrategyChurner:
		return adversary.NewMembershipChurner(id, dir), nil
	default:
		return nil, fmt.Errorf("chaos: unknown strategy %q", spec.Strategy)
	}
}

// Build assigns a strategy to each Byzantine slot and materializes it.
// correctTwin builds a correct protocol node for a slot (used by the
// crash strategy); pass nil to exclude crash-wrapped twins. The error is
// unreachable when the specs come from Plan (it only emits strategies
// Materialize knows, and crash only when a twin exists) but is returned
// so embedding drivers stay alive on hand-written specs.
func (c *Coalition) Build(byzIDs []ids.ID, correctTwin func(id ids.ID) simnet.Process) ([]simnet.Process, error) {
	specs := c.Plan(len(byzIDs), correctTwin != nil)
	out := make([]simnet.Process, 0, len(byzIDs))
	for i, id := range byzIDs {
		p, err := Materialize(specs[i], id, byzIDs, c.dir, correctTwin)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
