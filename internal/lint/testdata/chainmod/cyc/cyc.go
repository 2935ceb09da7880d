// Package cyc proves the summary fixpoint terminates under the real
// unitchecker: Ping and Pong are mutually recursive, and Ping's
// order-sensitive append must reach Pong through the cycle. No Step
// methods and no map ranges live here, so go vet must report nothing
// for this package — it just has to finish.
package cyc

var beats []int

func Ping(d int) {
	beats = append(beats, d)
	if d > 0 {
		Pong(d - 1)
	}
}

func Pong(d int) {
	if d > 0 {
		Ping(d - 1)
	}
}
