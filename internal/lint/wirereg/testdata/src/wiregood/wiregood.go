// Package wiregood is the conforming twin: every payload carries a
// distinct tag and appears in all three switches, so the pass must stay
// silent. The unrelated helper type proves non-implementations are
// ignored.
package wiregood

import "errors"

var errUnknown = errors.New("unknown kind")

type Kind uint8

const (
	KindPing Kind = iota + 1
	KindPong
)

type Payload interface {
	Kind() Kind
	appendTo(b []byte) []byte
}

type Ping struct{}

func (Ping) Kind() Kind               { return KindPing }
func (Ping) appendTo(b []byte) []byte { return b }

// Pong's methods hang off the pointer receiver: the pointer method set
// must be consulted when matching implementations.
type Pong struct{ N int }

func (*Pong) Kind() Kind               { return KindPong }
func (*Pong) appendTo(b []byte) []byte { return b }

// helper implements nothing and must be ignored.
type helper struct{ cache []byte }

// AppendEncode names Pong by pointer, the type its methods hang off.
func AppendEncode(dst []byte, p Payload) []byte {
	switch p := p.(type) {
	case Ping:
		return p.appendTo(append(dst, byte(KindPing)))
	case *Pong:
		return p.appendTo(append(dst, byte(KindPong)))
	default:
		panic("unregistered payload")
	}
}

func (k Kind) String() string {
	switch k {
	case KindPing:
		return "Ping"
	case KindPong:
		return "Pong"
	default:
		return "?"
	}
}

func Decode(b []byte) (Payload, error) {
	if len(b) == 0 {
		return nil, errUnknown
	}
	switch Kind(b[0]) {
	case KindPing:
		return Ping{}, nil
	case KindPong:
		return &Pong{}, nil
	default:
		return nil, errUnknown
	}
}
