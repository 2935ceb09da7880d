// Package uba — unknown-participant Byzantine agreement — is a Go library
// reproducing "Brief Announcement: Byzantine Agreement with Unknown
// Participants and Failures" (Khanchandani & Wattenhofer, PODC 2020).
//
// It implements every algorithm of the paper's id-only model — a
// synchronous system in which each node knows only its own (sparse)
// identifier, neither the system size n nor the failure bound f — with
// the optimal resiliency n > 3f:
//
//   - reliable broadcast (Algorithm 1)
//   - the rotor-coordinator (Algorithm 2)
//   - O(f)-round early-terminating consensus (Algorithm 3)
//   - approximate agreement, single-shot and iterated (Algorithm 4)
//   - parallel consensus (Algorithm 5)
//   - total ordering of events in dynamic networks (Algorithm 6)
//   - Byzantine renaming and terminating reliable broadcast (appendix)
//
// plus the classic known-(n, f) baselines they generalize, a library of
// Byzantine adversaries, and a discrete-event simulator reproducing the
// paper's impossibility results for asynchronous and semi-synchronous
// systems.
//
// The functions in this package are the high-level entry points: each
// builds a simulated cluster of the requested shape (correct nodes plus a
// Byzantine coalition running a chosen strategy), executes the protocol
// to termination, checks nothing hung, and returns the outcome together
// with a traffic report. Runs are deterministic in Config.Seed.
package uba

import (
	"errors"
	"fmt"
	"math/rand"

	"uba/internal/adversary"
	"uba/internal/ids"
	"uba/internal/oracle"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// Adversary selects the Byzantine coalition's strategy. Not every
// strategy is meaningful for every protocol; each run function documents
// how it interprets the choice.
type Adversary int

// Available adversary strategies.
const (
	// AdversaryNone runs with no Byzantine nodes regardless of
	// Config.Byzantine.
	AdversaryNone Adversary = iota + 1
	// AdversarySilent crashes the coalition from the start.
	AdversarySilent
	// AdversaryCrash runs the correct protocol in the Byzantine slots
	// and crashes them mid-protocol.
	AdversaryCrash
	// AdversarySplit equivocates protocol values between two halves of
	// the correct nodes (split-voting for consensus, two-faced source
	// for broadcast, extreme-value splitting for approximate
	// agreement).
	AdversarySplit
	// AdversaryGhost advertises non-existent node identifiers
	// (rotor-coordinator candidate poisoning).
	AdversaryGhost
	// AdversaryNoise sends random valid protocol messages to random
	// subsets.
	AdversaryNoise
)

// String names the strategy.
func (a Adversary) String() string {
	switch a {
	case AdversaryNone:
		return "none"
	case AdversarySilent:
		return "silent"
	case AdversaryCrash:
		return "crash"
	case AdversarySplit:
		return "split"
	case AdversaryGhost:
		return "ghost"
	case AdversaryNoise:
		return "noise"
	default:
		return fmt.Sprintf("adversary(%d)", int(a))
	}
}

// ParseAdversary converts a strategy name (as printed by String) back to
// an Adversary.
func ParseAdversary(s string) (Adversary, error) {
	for _, a := range []Adversary{
		AdversaryNone, AdversarySilent, AdversaryCrash,
		AdversarySplit, AdversaryGhost, AdversaryNoise,
	} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("uba: unknown adversary %q", s)
}

// Config shapes a simulated cluster.
type Config struct {
	// Correct is the number of correct nodes (g).
	Correct int
	// Byzantine is the number of Byzantine nodes (≤ f). The library
	// does not stop you from violating n > 3f — probing the boundary
	// is one of the experiments — but all guarantees assume it.
	Byzantine int
	// Adversary is the coalition's strategy (default AdversarySilent
	// when Byzantine > 0).
	Adversary Adversary
	// Seed makes the run reproducible (identifier layout and any
	// adversary randomness derive from it).
	Seed int64
	// Workers is how many goroutines step the simulation's nodes (see
	// simnet.Config.Workers); below 2 — the default — they are stepped
	// inline on the calling goroutine, where the rest of every round
	// runs in any case. Results are identical for every value.
	Workers int
	// MaxRounds bounds the run (0 = simulator default).
	MaxRounds int
	// EventLog, when non-nil, records a message-level transcript of the
	// run (see trace.NewEventLog and the ubasim -trace flag).
	EventLog *trace.EventLog
	// SendQuota bounds the messages any one node may queue per round
	// (0 = unlimited); see simnet.Config.SendQuota.
	SendQuota int
}

func (c Config) validate() error {
	if c.Correct <= 0 {
		return errors.New("uba: Config.Correct must be positive")
	}
	if c.Byzantine < 0 {
		return errors.New("uba: Config.Byzantine must be non-negative")
	}
	return nil
}

// validateInputs validates c and then checks that n inputs (named what)
// were given, one per correct node, so a bad size is reported as such
// and not as a count mismatch.
func (c Config) validateInputs(n int, what string) error {
	if err := c.validate(); err != nil {
		return err
	}
	if n != c.Correct {
		return fmt.Errorf("uba: %d %s for %d correct nodes", n, what, c.Correct)
	}
	return nil
}

func (c Config) adversary() Adversary {
	if c.Adversary != 0 {
		return c.Adversary
	}
	if c.Byzantine > 0 {
		return AdversarySilent
	}
	return AdversaryNone
}

// N returns the total system size n = Correct + Byzantine.
func (c Config) N() int { return c.Correct + c.Byzantine }

// Resilient reports whether the configuration satisfies n > 3f.
func (c Config) Resilient() bool { return c.N() > 3*c.Byzantine }

// cluster is the shared scaffolding of all run functions.
type cluster struct {
	cfg        Config
	net        *simnet.Network
	collector  *trace.Collector
	suite      *oracle.Suite // the harness's own complexity oracle, nil without a contract
	all        []ids.ID
	correctIDs []ids.ID
	byzIDs     []ids.ID
	dir        *adversary.Directory
}

// newCluster builds the scaffolding for one run of the named protocol
// family. Families with a certified complexity contract (all nine)
// get the runtime complexity oracle attached as the network's observer,
// so every campaign — sweep cells, soak runs, examples — cross-checks
// the statically certified per-round send classes against observed
// traffic.
func newCluster(cfg Config, family string) (*cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nByz := cfg.Byzantine
	if cfg.adversary() == AdversaryNone {
		nByz = 0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	all := ids.Sparse(rng, cfg.Correct+nByz)
	collector := &trace.Collector{}
	netCfg := simnet.Config{
		MaxRounds: cfg.MaxRounds,
		Workers:   cfg.Workers,
		Collector: collector,
		EventLog:  cfg.EventLog,
		SendQuota: cfg.SendQuota,
	}
	var suite *oracle.Suite
	if co := oracle.NewComplexityFor(family, 0); co != nil {
		suite = oracle.NewSuite(co)
		netCfg.Observer = suite
	}
	return &cluster{
		cfg:        cfg,
		net:        simnet.New(netCfg),
		collector:  collector,
		suite:      suite,
		all:        all,
		correctIDs: all[:cfg.Correct],
		byzIDs:     all[cfg.Correct:],
		dir:        adversary.NewDirectory(all, all[cfg.Correct:]),
	}, nil
}

// byzFactory builds one Byzantine process for a coalition slot; correctByz
// builds the correct-protocol process used by AdversaryCrash.
func (c *cluster) addByzantine(
	build func(id ids.ID, i int) simnet.Process,
) error {
	for i, id := range c.byzIDs {
		p := build(id, i)
		if p == nil {
			p = adversary.NewSilent(id)
		}
		if err := c.net.AddByzantine(p); err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) run(stop func(*simnet.Network) bool) (int, error) {
	rounds, err := c.net.Run(stop)
	if err == nil {
		err = c.complexityErr()
	}
	return rounds, err
}

// complexityErr surfaces a fired complexity oracle as a run error: a
// correct node exceeding its family's certified per-round send class
// is a protocol or engine regression, not a protocol outcome. Runners
// that drive RunRound themselves call it once at the end of the run.
func (c *cluster) complexityErr() error {
	if c.suite == nil || !c.suite.Failed() {
		return nil
	}
	v := c.suite.First()
	return fmt.Errorf("uba: %s oracle fired in round %d: %s", v.Oracle, v.Round, v.Detail)
}

// close retires the network, returning its round scratch to the
// recycling pool for the next run. Every one-shot run function defers
// it; long-lived handles (OrderingCluster) expose it to their callers
// instead.
func (c *cluster) close() { c.net.Close() }

func (c *cluster) report() trace.Report { return c.collector.Report() }
