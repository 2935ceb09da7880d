// Package simnet is a trimmed-down stand-in for uba/internal/simnet:
// the summary pass recognizes RoundEnv's send methods by package name,
// type name, and method name, so a minimal mirror exercises the same
// code paths.
package simnet

// Received mirrors the value-type delivered message.
type Received struct {
	From    int
	Payload string
}

// Inbox mirrors the real lazy merged view over shared delivery storage.
type Inbox struct {
	msgs []Received
}

// Len mirrors the real accessor.
func (in Inbox) Len() int { return len(in.msgs) }

// All mirrors the real iterator accessor (a slice is range-equivalent
// for the fixtures' purposes).
func (in Inbox) All() []Received { return in.msgs }

// RoundEnv mirrors the round view handed to Process.Step.
type RoundEnv struct {
	Round int
	Inbox Inbox
}

// Broadcast mirrors the real queueing method.
func (env *RoundEnv) Broadcast(p string) {}

// Send mirrors the real addressed queueing method.
func (env *RoundEnv) Send(to int, p string) {}
