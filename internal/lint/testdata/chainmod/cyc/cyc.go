// Package cyc proves the summary fixpoint terminates under the real
// unitchecker: Ping and Pong are mutually recursive, and Ping's
// retention of p must reach Pong through the cycle. No Step methods
// live here, so go vet must report nothing for this package — it just
// has to finish.
package cyc

var beats []*int

func Ping(p *int, d int) {
	beats = append(beats, p)
	if d > 0 {
		Pong(p, d-1)
	}
}

func Pong(p *int, d int) {
	if d > 0 {
		Ping(p, d-1)
	}
}
