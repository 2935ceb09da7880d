// The complexity oracle holds each protocol family's
// complexity.Registry entry against the engine's observed per-round
// tallies during every campaign (DESIGN.md §8). It sees a correct node
// that sends more than its entry allows; an entry looser than its
// family's runs is TestRegistryIsTight's to catch, since a looser
// bound only makes this oracle more lenient.
package oracle

import (
	"fmt"

	"uba/internal/complexity"
	"uba/internal/simnet"
	"uba/internal/trace"
)

// DefaultComplexitySlack is the constant-factor slack the campaigns
// grant a contract's leading term: a Linear contract allows a correct
// node slack·n sends per round. The protocols here have small
// constants (the widest is relbcast's per-key echo fan, bounded by the
// distinct accepted keys per round), so a one-digit slack holds with
// room while still catching a quadratic regression at realistic n.
const DefaultComplexitySlack = 8

// NewComplexity builds the runtime complexity oracle for one protocol
// family: each round, the largest per-node broadcast and unicast
// tallies among correct senders must stay within the contract class's
// bound for the round's live-node count. Byzantine senders are already
// excluded by the engine's accounting — an adversary is free to flood.
// A zero or negative slack selects DefaultComplexitySlack.
func NewComplexity(family string, ct complexity.Contract, slack int) StatsOracle {
	if slack <= 0 {
		slack = DefaultComplexitySlack
	}
	return &complexityOracle{
		name:  "complexity:" + family,
		ct:    ct,
		slack: slack,
	}
}

// NewComplexityFor is NewComplexity with the contract looked up in the
// registry; it returns nil (attach nothing) for families
// without a registered contract.
func NewComplexityFor(family string, slack int) StatsOracle {
	ct, ok := complexity.Lookup(family)
	if !ok {
		return nil
	}
	return NewComplexity(family, ct, slack)
}

type complexityOracle struct {
	name  string
	ct    complexity.Contract
	slack int
}

func (o *complexityOracle) Name() string { return o.name }

// Observe implements Oracle; the complexity oracle reads the round
// ledger, not the event stream.
func (o *complexityOracle) Observe(round int, events []trace.Event) *Violation {
	return nil
}

// ObserveStats implements StatsOracle.
func (o *complexityOracle) ObserveStats(round int, acct simnet.RoundAccounting) *Violation {
	if v := o.exceeds(round, "broadcasts", o.ct.Broadcasts, acct.CorrectMaxBroadcasts, acct.Nodes); v != nil {
		return v
	}
	return o.exceeds(round, "unicasts", o.ct.Unicasts, acct.CorrectMaxUnicasts, acct.Nodes)
}

func (o *complexityOracle) exceeds(round int, kind string, c complexity.Class, observed, nodes int) *Violation {
	bound := c.Bound(nodes, o.slack)
	if observed <= bound {
		return nil
	}
	return &Violation{
		Oracle: o.name,
		Round:  round,
		Detail: fmt.Sprintf("correct node sent %d %s in round %d: contract %s allows at most %d (n=%d, slack=%d)",
			observed, kind, round, c, bound, nodes, o.slack),
	}
}
