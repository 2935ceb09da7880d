package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"uba/internal/ids"
)

// Kind discriminates the payload types on the wire.
type Kind uint8

// Payload kinds. The numbering is part of the wire format; append only.
const (
	// KindPresent is the first-round "I exist" broadcast every correct
	// node sends so that n_v ≥ g holds at every node (Alg 1 line 4,
	// and the join announcement of the dynamic-network protocol).
	KindPresent Kind = iota + 1
	// KindInit is the rotor-coordinator's round-1 candidacy broadcast.
	KindInit
	// KindRBMessage is a reliable-broadcast payload (m, s).
	KindRBMessage
	// KindRBEcho is a reliable-broadcast echo(m, s).
	KindRBEcho
	// KindIDEcho is an identifier echo: echo(p) in the
	// rotor-coordinator's candidate agreement and in renaming.
	KindIDEcho
	// KindOpinion is a coordinator's opinion(x) broadcast.
	KindOpinion
	// KindInput is the consensus input(x) message.
	KindInput
	// KindPrefer is the consensus prefer(x) message.
	KindPrefer
	// KindStrongPrefer is the consensus strongprefer(x) message.
	KindStrongPrefer
	// KindNoPreference is parallel consensus's id:nopreference marker.
	KindNoPreference
	// KindNoStrongPreference is id:nostrongpreference.
	KindNoStrongPreference
	// KindAck is the (ack, r) join reply of the dynamic protocol.
	KindAck
	// KindAbsent is the leave announcement of the dynamic protocol.
	KindAbsent
	// KindEvent is a round-tagged event submission (m, r).
	KindEvent
	// KindTerminate is renaming's terminate(k) message.
	KindTerminate
)

// String names the kind for transcripts and traces.
func (k Kind) String() string {
	switch k {
	case KindPresent:
		return "present"
	case KindInit:
		return "init"
	case KindRBMessage:
		return "rbmessage"
	case KindRBEcho:
		return "rbecho"
	case KindIDEcho:
		return "idecho"
	case KindOpinion:
		return "opinion"
	case KindInput:
		return "input"
	case KindPrefer:
		return "prefer"
	case KindStrongPrefer:
		return "strongprefer"
	case KindNoPreference:
		return "nopreference"
	case KindNoStrongPreference:
		return "nostrongpreference"
	case KindAck:
		return "ack"
	case KindAbsent:
		return "absent"
	case KindEvent:
		return "event"
	case KindTerminate:
		return "terminate"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Payload is one protocol message body. Implementations are value types;
// the simulator copies them freely between nodes.
type Payload interface {
	// Kind returns the wire discriminator.
	Kind() Kind
	// appendTo appends the payload's encoding (excluding the kind byte).
	appendTo(buf []byte) []byte
}

// Instanced is implemented by payloads that belong to a tagged protocol
// instance (parallel consensus, per-round ordering instances). Instance 0
// means "the untagged, single-instance protocol".
type Instanced interface {
	Payload
	// InstanceID returns the instance tag.
	InstanceID() uint64
}

// Present is the first-round presence announcement.
type Present struct{}

// Init is the rotor-coordinator candidacy announcement.
type Init struct{}

// RBMessage is a reliable-broadcast payload (m, s): Source is s and Body
// is the application message m.
type RBMessage struct {
	Source ids.ID
	Body   []byte
}

// RBEcho is echo(m, s) for reliable broadcast.
type RBEcho struct {
	Source ids.ID
	Body   []byte
}

// IDEcho is echo(p): a reliable-broadcast-style echo of a node identifier,
// used by the rotor-coordinator's candidate agreement and by renaming.
// Instance tags the owning protocol instance (0 for standalone runs).
type IDEcho struct {
	Instance  uint64
	Candidate ids.ID
}

// InstanceID implements Instanced.
func (p IDEcho) InstanceID() uint64 { return p.Instance }

// Opinion is a coordinator's opinion(x) broadcast, tagged with the owning
// instance (0 for standalone runs).
type Opinion struct {
	Instance uint64
	X        Value
}

// InstanceID implements Instanced.
func (p Opinion) InstanceID() uint64 { return p.Instance }

// Input is input(x). Instance 0 is the plain consensus algorithm; nonzero
// instances are parallel-consensus id:input(x) messages.
type Input struct {
	Instance uint64
	X        Value
}

// InstanceID implements Instanced.
func (p Input) InstanceID() uint64 { return p.Instance }

// Prefer is prefer(x) (instance-tagged like Input).
type Prefer struct {
	Instance uint64
	X        Value
}

// InstanceID implements Instanced.
func (p Prefer) InstanceID() uint64 { return p.Instance }

// StrongPrefer is strongprefer(x) (instance-tagged like Input).
type StrongPrefer struct {
	Instance uint64
	X        Value
}

// InstanceID implements Instanced.
func (p StrongPrefer) InstanceID() uint64 { return p.Instance }

// NoPreference is parallel consensus's id:nopreference marker: the sender
// is aware of the instance but did not gather a 2n_v/3 input quorum.
type NoPreference struct {
	Instance uint64
}

// InstanceID implements Instanced.
func (p NoPreference) InstanceID() uint64 { return p.Instance }

// NoStrongPreference is id:nostrongpreference: aware of the instance but
// no 2n_v/3 prefer quorum.
type NoStrongPreference struct {
	Instance uint64
}

// InstanceID implements Instanced.
func (p NoStrongPreference) InstanceID() uint64 { return p.Instance }

// Ack is the (ack, r) reply that tells a joining node the current round
// number of the dynamic-network protocol.
type Ack struct {
	Round uint64
}

// Absent is the leave announcement of the dynamic-network protocol.
type Absent struct{}

// Event is a round-tagged event submission (m, r) in the total-ordering
// protocol.
type Event struct {
	Round uint64
	Body  []byte
}

// Terminate is renaming's terminate(k): "my echo set was unchanged in
// rounds k and k+1".
type Terminate struct {
	Round uint64
}

// Compile-time interface checks.
var (
	_ Payload = Present{}
	_ Payload = Init{}
	_ Payload = RBMessage{}
	_ Payload = RBEcho{}
	_ Payload = Absent{}
	_ Payload = Ack{}
	_ Payload = Event{}
	_ Payload = Terminate{}

	_ Instanced = IDEcho{}
	_ Instanced = Opinion{}
	_ Instanced = Input{}
	_ Instanced = Prefer{}
	_ Instanced = StrongPrefer{}
	_ Instanced = NoPreference{}
	_ Instanced = NoStrongPreference{}
)

// Kind implementations.

// Kind returns KindPresent.
func (Present) Kind() Kind { return KindPresent }

// Kind returns KindInit.
func (Init) Kind() Kind { return KindInit }

// Kind returns KindRBMessage.
func (RBMessage) Kind() Kind { return KindRBMessage }

// Kind returns KindRBEcho.
func (RBEcho) Kind() Kind { return KindRBEcho }

// Kind returns KindIDEcho.
func (IDEcho) Kind() Kind { return KindIDEcho }

// Kind returns KindOpinion.
func (Opinion) Kind() Kind { return KindOpinion }

// Kind returns KindInput.
func (Input) Kind() Kind { return KindInput }

// Kind returns KindPrefer.
func (Prefer) Kind() Kind { return KindPrefer }

// Kind returns KindStrongPrefer.
func (StrongPrefer) Kind() Kind { return KindStrongPrefer }

// Kind returns KindNoPreference.
func (NoPreference) Kind() Kind { return KindNoPreference }

// Kind returns KindNoStrongPreference.
func (NoStrongPreference) Kind() Kind { return KindNoStrongPreference }

// Kind returns KindAck.
func (Ack) Kind() Kind { return KindAck }

// Kind returns KindAbsent.
func (Absent) Kind() Kind { return KindAbsent }

// Kind returns KindEvent.
func (Event) Kind() Kind { return KindEvent }

// Kind returns KindTerminate.
func (Terminate) Kind() Kind { return KindTerminate }

// --- encoding ---

func appendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendValue(buf []byte, v Value) []byte {
	if v.IsBot {
		buf = append(buf, 1)
		return buf
	}
	buf = append(buf, 0)
	return appendUint64(buf, math.Float64bits(v.X))
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	buf = append(buf, b...)
	return buf
}

func (Present) appendTo(buf []byte) []byte { return buf }
func (Init) appendTo(buf []byte) []byte    { return buf }
func (Absent) appendTo(buf []byte) []byte  { return buf }

func (p RBMessage) appendTo(buf []byte) []byte {
	buf = appendUint64(buf, uint64(p.Source))
	return appendBytes(buf, p.Body)
}

func (p RBEcho) appendTo(buf []byte) []byte {
	buf = appendUint64(buf, uint64(p.Source))
	return appendBytes(buf, p.Body)
}

func (p IDEcho) appendTo(buf []byte) []byte {
	buf = appendUint64(buf, p.Instance)
	return appendUint64(buf, uint64(p.Candidate))
}

func (p Opinion) appendTo(buf []byte) []byte {
	buf = appendUint64(buf, p.Instance)
	return appendValue(buf, p.X)
}

func (p Input) appendTo(buf []byte) []byte {
	buf = appendUint64(buf, p.Instance)
	return appendValue(buf, p.X)
}

func (p Prefer) appendTo(buf []byte) []byte {
	buf = appendUint64(buf, p.Instance)
	return appendValue(buf, p.X)
}

func (p StrongPrefer) appendTo(buf []byte) []byte {
	buf = appendUint64(buf, p.Instance)
	return appendValue(buf, p.X)
}

func (p NoPreference) appendTo(buf []byte) []byte {
	return appendUint64(buf, p.Instance)
}

func (p NoStrongPreference) appendTo(buf []byte) []byte {
	return appendUint64(buf, p.Instance)
}

func (p Ack) appendTo(buf []byte) []byte { return appendUint64(buf, p.Round) }

func (p Event) appendTo(buf []byte) []byte {
	buf = appendUint64(buf, p.Round)
	return appendBytes(buf, p.Body)
}

func (p Terminate) appendTo(buf []byte) []byte { return appendUint64(buf, p.Round) }

// Encode serializes a payload, kind byte first. The result is the
// canonical form used for duplicate detection and byte accounting.
func Encode(p Payload) []byte {
	return AppendEncode(make([]byte, 0, 1+16), p)
}

// AppendEncode appends the canonical encoding of p to dst: Encode for a
// caller that owns a buffer, like the engine's per-node send buffer.
// It dispatches with a closed type switch rather than a dynamic call, so
// p does not escape: a caller that passes a payload value straight in
// boxes it on its own stack. Every Payload type has a case here (the
// ubalint wirereg pass checks it).
func AppendEncode(dst []byte, p Payload) []byte {
	switch p := p.(type) {
	case Present:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case Init:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case Absent:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case RBMessage:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case RBEcho:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case IDEcho:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case Opinion:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case Input:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case Prefer:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case StrongPrefer:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case NoPreference:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case NoStrongPreference:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case Ack:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case Event:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	case Terminate:
		dst = append(dst, byte(p.Kind()))
		return p.appendTo(dst)
	default:
		// Only nil reaches here: Payload's unexported method seals the
		// set of types to this package's, and each has a case above.
		panic("wire: cannot encode a nil payload")
	}
}

// Decoding errors.
var (
	// ErrTruncated reports an encoding shorter than its kind requires.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrUnknownKind reports an unrecognized kind byte.
	ErrUnknownKind = errors.New("wire: unknown payload kind")
	// ErrTrailing reports unconsumed bytes after a valid payload.
	ErrTrailing = errors.New("wire: trailing bytes after payload")
)

type reader struct {
	buf []byte
	err error
}

func (r *reader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = ErrTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) value() Value {
	if r.err != nil {
		return Value{}
	}
	if len(r.buf) < 1 {
		r.err = ErrTruncated
		return Value{}
	}
	isBot := r.buf[0] == 1
	r.buf = r.buf[1:]
	if isBot {
		return Bot()
	}
	return V(math.Float64frombits(r.uint64()))
}

func (r *reader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < 4 {
		r.err = ErrTruncated
		return nil
	}
	n := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	if uint32(len(r.buf)) < n {
		r.err = ErrTruncated
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[:n])
	r.buf = r.buf[n:]
	return out
}

// Decode parses a payload previously produced by Encode.
func Decode(data []byte) (Payload, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	r := &reader{buf: data[1:]}
	var p Payload
	switch Kind(data[0]) {
	case KindPresent:
		p = Present{}
	case KindInit:
		p = Init{}
	case KindAbsent:
		p = Absent{}
	case KindRBMessage:
		p = RBMessage{Source: ids.ID(r.uint64()), Body: r.bytes()}
	case KindRBEcho:
		p = RBEcho{Source: ids.ID(r.uint64()), Body: r.bytes()}
	case KindIDEcho:
		p = IDEcho{Instance: r.uint64(), Candidate: ids.ID(r.uint64())}
	case KindOpinion:
		p = Opinion{Instance: r.uint64(), X: r.value()}
	case KindInput:
		p = Input{Instance: r.uint64(), X: r.value()}
	case KindPrefer:
		p = Prefer{Instance: r.uint64(), X: r.value()}
	case KindStrongPrefer:
		p = StrongPrefer{Instance: r.uint64(), X: r.value()}
	case KindNoPreference:
		p = NoPreference{Instance: r.uint64()}
	case KindNoStrongPreference:
		p = NoStrongPreference{Instance: r.uint64()}
	case KindAck:
		p = Ack{Round: r.uint64()}
	case KindEvent:
		p = Event{Round: r.uint64(), Body: r.bytes()}
	case KindTerminate:
		p = Terminate{Round: r.uint64()}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, data[0])
	}
	if r.err != nil {
		return nil, fmt.Errorf("decode %v: %w", Kind(data[0]), r.err)
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("decode %v: %w", Kind(data[0]), ErrTrailing)
	}
	return p, nil
}
