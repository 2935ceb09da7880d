// Package leaf holds the actual effect of the chain: retention.
// Nothing here is a Step method, so the diagnostic passes stay silent
// on this package — the effect must travel upward as a fact instead.
package leaf

import "chainmod/simnet"

var stash []*simnet.RoundEnv

// Keep retains its argument past the call.
func Keep(env *simnet.RoundEnv) { stash = append(stash, env) }

// Size is effect-free.
func Size(in simnet.Inbox) int { return in.Len() }
