// Package wirebad is a trimmed-down stand-in for uba/internal/wire with
// every registration mistake the pass must catch: a payload missing
// from Decode, one missing from Kind.String, one missing from
// AppendEncode, two sharing a tag, and one whose tag cannot be
// determined statically.
package wirebad

import "errors"

var errUnknown = errors.New("unknown kind")

// Kind mirrors the wire-format tag byte.
type Kind uint8

const (
	KindA Kind = iota + 1
	KindB
	KindC
	KindD
	KindF
)

// Payload mirrors the real registration shape.
type Payload interface {
	Kind() Kind
	appendTo(b []byte) []byte
}

// A is fully registered: tag, Decode case, String case.
type A struct{}

func (A) Kind() Kind               { return KindA }
func (A) appendTo(b []byte) []byte { return b }

type B struct{} // want `payload B \(kind KindB\) has no case in Decode: messages of this kind fail to decode at runtime`

func (B) Kind() Kind               { return KindB }
func (B) appendTo(b []byte) []byte { return b }

type C struct{} // want `payload C \(kind KindC\) has no case in Kind\.String: its diagnostics print as a raw byte`

func (C) Kind() Kind               { return KindC }
func (C) appendTo(b []byte) []byte { return b }

// D reuses A's tag: the two are indistinguishable on the wire.
type D struct{} // want `payloads A and D both encode as KindA: kind tags must be distinct`

func (D) Kind() Kind               { return KindA }
func (D) appendTo(b []byte) []byte { return b }

// E computes its tag from a field: not statically checkable.
type E struct{ k Kind } // want `cannot determine the wire kind of payload E: its Kind method must return a single named Kind constant`

func (e E) Kind() Kind             { return e.k }
func (E) appendTo(b []byte) []byte { return b }

type F struct{} // want `payload F \(kind KindF\) has no case in AppendEncode: sending it panics at runtime`

func (F) Kind() Kind               { return KindF }
func (F) appendTo(b []byte) []byte { return b }

// AppendEncode mirrors the real encoder's closed type switch: F has no
// case, so sending one panics.
func AppendEncode(dst []byte, p Payload) []byte {
	switch p := p.(type) {
	case A:
		return p.appendTo(append(dst, byte(p.Kind())))
	case B:
		return p.appendTo(append(dst, byte(p.Kind())))
	case C:
		return p.appendTo(append(dst, byte(p.Kind())))
	case D, E:
		return p.appendTo(append(dst, byte(p.Kind())))
	default:
		panic("unregistered payload")
	}
}

func (k Kind) String() string {
	switch k {
	case KindA:
		return "A"
	case KindB:
		return "B"
	case KindD:
		return "D"
	case KindF:
		return "F"
	default:
		return "?"
	}
}

// Decode mirrors the real wire entry point: B has no case, so a KindB
// message fails at runtime — exactly what the pass turns into a lint
// error at the type declaration.
func Decode(b []byte) (Payload, error) {
	if len(b) == 0 {
		return nil, errUnknown
	}
	switch Kind(b[0]) {
	case KindA:
		return A{}, nil
	case KindC:
		return C{}, nil
	case KindD:
		return D{}, nil
	case KindF:
		return F{}, nil
	default:
		return nil, errUnknown
	}
}
