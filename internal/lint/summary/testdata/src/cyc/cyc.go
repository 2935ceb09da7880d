// Package cyc is the termination fixture: Ping and Pong are mutually
// recursive, so the fixpoint must stabilize rather than loop. Each ends
// up with the union of the cycle's sends: Ping's broadcast reaches Pong
// only through the cycle.
package cyc

import "simnet"

func Ping(env *simnet.RoundEnv, d int) { // want `summary: bcast\(O\(1\)\)$`
	env.Broadcast("ping")
	if d > 0 {
		Pong(env, d-1)
	}
}

func Pong(env *simnet.RoundEnv, d int) { // want `summary: bcast\(O\(1\)\)$`
	if d > 0 {
		Ping(env, d-1)
	}
}
