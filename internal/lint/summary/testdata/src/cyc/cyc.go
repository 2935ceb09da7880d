// Package cyc is the termination fixture: Ping and Pong are mutually
// recursive, so the fixpoint must stabilize rather than loop. Each ends
// up with the union of the cycle's effects: Ping's order-sensitive
// append reaches Pong only through the cycle.
package cyc

var beats []int

func Ping(d int) { // want `summary: ordersensitive`
	beats = append(beats, d)
	if d > 0 {
		Pong(d - 1)
	}
}

func Pong(d int) { // want `summary: ordersensitive`
	if d > 0 {
		Ping(d - 1)
	}
}
