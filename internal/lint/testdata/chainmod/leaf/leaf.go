// Package leaf holds the actual effects of the chain: retention and
// order-sensitive appends. Nothing here is a Step method, so the
// diagnostic passes stay silent on this package — the effects must
// travel upward as facts instead.
package leaf

import "chainmod/simnet"

var (
	stash   []*simnet.RoundEnv
	journal []string
)

// Keep retains its argument past the call.
func Keep(env *simnet.RoundEnv) { stash = append(stash, env) }

// Record appends in call order: order-sensitive.
func Record(v string) { journal = append(journal, v) }

// Size is effect-free.
func Size(in simnet.Inbox) int { return in.Len() }
