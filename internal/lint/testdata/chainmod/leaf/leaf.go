// Package leaf holds the actual sends of the chain: a broadcast per
// inbox message. Nothing here is a Step method of a registered type, so
// the complexity pass stays silent on this package — the send class
// must travel upward as a fact instead.
package leaf

import "chainmod/simnet"

// Fanout broadcasts once per delivered message: O(n).
func Fanout(env *simnet.RoundEnv) {
	for i := 0; i < env.Inbox.Len(); i++ {
		env.Broadcast("echo")
	}
}
