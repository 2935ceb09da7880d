// Package simnet is the chainmod stand-in for uba/internal/simnet: the
// analyzers match RoundEnv by package name + type name, so Step methods
// in this module behave like real protocol code under go vet.
package simnet

// Received mirrors the value-type delivered message.
type Received struct {
	From    int
	Payload string
}

// Inbox mirrors the real lazy merged view over shared delivery
// storage. This module pins go 1.22, so it exposes only Len (the
// range-over-func iterator needs a newer language version).
type Inbox struct {
	msgs []Received
}

// Len mirrors the real accessor.
func (in Inbox) Len() int { return len(in.msgs) }

// RoundEnv mirrors the round view handed to Process.Step.
type RoundEnv struct {
	Round int
	Inbox Inbox

	out []string
}

// Broadcast appends to the env's own outbox.
func (env *RoundEnv) Broadcast(p string) { env.out = append(env.out, p) }
