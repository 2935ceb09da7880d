// Package cyc is the termination fixture: Ping and Pong are mutually
// recursive, so the fixpoint must stabilize rather than loop. Each ends
// up with the union of the cycle's effects: Ping's retention of p
// reaches Pong only through the cycle.
package cyc

var beats []*int

func Ping(p *int, d int) { // want `summary: retains\(1\)$`
	beats = append(beats, p)
	if d > 0 {
		Pong(p, d-1)
	}
}

func Pong(p *int, d int) { // want `summary: retains\(1\)$`
	if d > 0 {
		Ping(p, d-1)
	}
}
