// Package cyc proves the summary fixpoint terminates under the real
// unitchecker: Ping and Pong are mutually recursive, and Ping's
// broadcast must reach Pong's summary through the cycle. No registered
// type lives here, so go vet must report nothing for this package — it
// just has to finish.
package cyc

import "chainmod/simnet"

func Ping(env *simnet.RoundEnv, d int) {
	env.Broadcast("ping")
	if d > 0 {
		Pong(env, d-1)
	}
}

func Pong(env *simnet.RoundEnv, d int) {
	if d > 0 {
		Ping(env, d-1)
	}
}
