package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"uba/internal/ids"
)

func allPayloadSamples() []Payload {
	return []Payload{
		Present{},
		Init{},
		Absent{},
		RBMessage{Source: 42, Body: []byte("hello")},
		RBMessage{Source: 1, Body: nil},
		RBEcho{Source: 42, Body: []byte("hello")},
		RBEcho{Source: 7, Body: []byte{}},
		IDEcho{Instance: 0, Candidate: 99},
		IDEcho{Instance: 12, Candidate: 1},
		Opinion{Instance: 3, X: V(1.5)},
		Opinion{Instance: 0, X: Bot()},
		Input{Instance: 0, X: V(0)},
		Input{Instance: 8, X: V(-3.25)},
		Prefer{Instance: 1, X: V(math.Pi)},
		Prefer{Instance: 0, X: Bot()},
		StrongPrefer{Instance: 2, X: V(1)},
		StrongPrefer{Instance: 2, X: Bot()},
		NoPreference{Instance: 4},
		NoStrongPreference{Instance: 4},
		Ack{Round: 17},
		Event{Round: 3, Body: []byte("tx: a->b")},
		Event{Round: 0, Body: nil},
		Terminate{Round: 12},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	kinds := make(map[Kind]bool)
	for _, p := range allPayloadSamples() {
		kinds[p.Kind()] = true
		enc := Encode(p)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%#v)): %v", p, err)
		}
		// Normalize nil vs empty byte slices before comparing.
		if !payloadEqual(got, p) {
			t.Fatalf("round trip: got %#v, want %#v", got, p)
		}
		// AppendEncode appends after what dst holds, and the payload the
		// engine decodes re-encodes to the bytes it was decoded from.
		prefix := []byte("prefix")
		app := AppendEncode(prefix, p)
		if !bytes.Equal(app[:len(prefix)], prefix) || !bytes.Equal(app[len(prefix):], enc) {
			t.Fatalf("AppendEncode(%q, %#v) = %q, want the prefix then %q", prefix, p, app, enc)
		}
		dec, err := Decode(app[len(prefix):])
		if err != nil {
			t.Fatalf("Decode(AppendEncode(%#v)): %v", p, err)
		}
		if re := AppendEncode(nil, dec); !bytes.Equal(re, enc) {
			t.Fatalf("%#v decodes to %#v, which re-encodes to %q, not %q", p, dec, re, enc)
		}
	}
	for k := KindPresent; k <= KindTerminate; k++ {
		if !kinds[k] {
			t.Fatalf("no sample of kind %v: the round trip must cover every kind", k)
		}
	}
}

// payloadEqual compares payloads by their canonical encoding, which is
// the simulator's own notion of identity (it also treats nil and empty
// bodies alike, and NaN opinion bit patterns exactly).
func payloadEqual(a, b Payload) bool {
	return bytes.Equal(Encode(a), Encode(b))
}

func TestEncodeIsCanonical(t *testing.T) {
	t.Parallel()
	// Same payload must encode to identical bytes every time: the
	// engine's duplicate filter depends on it.
	for _, p := range allPayloadSamples() {
		if !bytes.Equal(Encode(p), Encode(p)) {
			t.Fatalf("non-deterministic encoding for %#v", p)
		}
	}
}

func TestDistinctPayloadsEncodeDistinctly(t *testing.T) {
	t.Parallel()
	samples := allPayloadSamples()
	seen := make(map[string]Payload, len(samples))
	for _, p := range samples {
		key := string(Encode(p))
		if prev, dup := seen[key]; dup && !payloadEqual(prev, p) {
			t.Fatalf("payloads %#v and %#v share encoding", prev, p)
		}
		seen[key] = p
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{0xFF}},
		{"zero kind", []byte{0x00}},
		{"truncated input", Encode(Input{X: V(1)})[:3]},
		{"truncated rb body", Encode(RBMessage{Source: 1, Body: []byte("abcdef")})[:10]},
		{"trailing bytes", append(Encode(Present{}), 0x01)},
		{"truncated ack", []byte{byte(KindAck), 1, 2}},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, err := Decode(tt.data); err == nil {
				t.Fatalf("Decode(%x) succeeded, want error", tt.data)
			}
		})
	}
}

func TestValueSemantics(t *testing.T) {
	t.Parallel()
	if !Bot().Equal(Bot()) {
		t.Fatal("⊥ != ⊥")
	}
	if Bot().Equal(V(0)) || V(0).Equal(Bot()) {
		t.Fatal("⊥ equals a real value")
	}
	if !V(1.5).Equal(V(1.5)) || V(1.5).Equal(V(2)) {
		t.Fatal("real value equality wrong")
	}
	nan := V(math.NaN())
	if !nan.Equal(nan) {
		t.Fatal("identical NaN payloads must compare equal (bit pattern)")
	}
	if Bot().String() != "⊥" {
		t.Fatalf("Bot().String() = %q", Bot().String())
	}
	if V(2.5).String() != "2.5" {
		t.Fatalf("V(2.5).String() = %q", V(2.5).String())
	}
}

func TestValueLessIsTotalOrder(t *testing.T) {
	t.Parallel()
	vals := []Value{Bot(), V(math.Inf(-1)), V(-1), V(0), V(1), V(math.Inf(1))}
	for i := range vals {
		for j := range vals {
			less, greater := vals[i].Less(vals[j]), vals[j].Less(vals[i])
			switch {
			case i == j && (less || greater):
				t.Fatalf("value %v compares unequal to itself", vals[i])
			case i < j && (!less || greater):
				t.Fatalf("ordering violated between %v and %v", vals[i], vals[j])
			}
		}
	}
}

func TestValueKeyDistinguishesBot(t *testing.T) {
	t.Parallel()
	if Bot().Key() == V(0).Key() {
		t.Fatal("⊥ key collides with 0")
	}
	if V(1).Key() == V(2).Key() {
		t.Fatal("distinct values share key")
	}
}

// Property: every Input/Prefer/StrongPrefer/Opinion payload survives a
// round trip for arbitrary instance tags and values.
func TestQuickRoundTripValueCarriers(t *testing.T) {
	t.Parallel()
	prop := func(instance uint64, x float64, isBot bool) bool {
		v := V(x)
		if isBot {
			v = Bot()
		}
		for _, p := range []Payload{
			Input{Instance: instance, X: v},
			Prefer{Instance: instance, X: v},
			StrongPrefer{Instance: instance, X: v},
			Opinion{Instance: instance, X: v},
		} {
			got, err := Decode(Encode(p))
			if err != nil || !payloadEqual(got, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: RBMessage and Event round-trip arbitrary bodies.
func TestQuickRoundTripBodies(t *testing.T) {
	t.Parallel()
	prop := func(src uint64, body []byte, round uint64) bool {
		m := RBMessage{Source: ids.ID(src), Body: body}
		gotM, err := Decode(Encode(m))
		if err != nil || !payloadEqual(gotM, m) {
			return false
		}
		e := Event{Round: round, Body: body}
		gotE, err := Decode(Encode(e))
		return err == nil && payloadEqual(gotE, e)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKindString walks every tag a kind byte can hold and requires the
// three registrations of a kind to agree: Kind.String names it, Decode
// knows it (a bare kind byte may fail as truncated, never as an unknown
// kind), and allPayloadSamples holds a sample of it, all of one Go type.
// A kind added to one switch and not the other fails here.
func TestKindString(t *testing.T) {
	t.Parallel()
	sampled := make(map[Kind]reflect.Type)
	for _, p := range allPayloadSamples() {
		typ := reflect.TypeOf(p)
		if prev, ok := sampled[p.Kind()]; ok && prev != typ {
			t.Fatalf("%v and %v share kind %d", prev, typ, p.Kind())
		}
		sampled[p.Kind()] = typ
	}
	for tag := range 256 {
		k := Kind(tag)
		s := k.String()
		named := s != fmt.Sprintf("kind(%d)", tag)
		_, err := Decode([]byte{byte(tag)})
		decoded := !errors.Is(err, ErrUnknownKind)
		_, hasSample := sampled[k]
		if named != decoded || named != hasSample {
			t.Errorf("kind %d: String %q, decodes %v, has a sample %v; a kind is all three or none", tag, s, decoded, hasSample)
		}
		if named && (s == "" || strings.HasPrefix(s, "kind")) {
			t.Errorf("kind %d has suspicious string %q", tag, s)
		}
	}
}

func TestInstancedPayloadsReportInstance(t *testing.T) {
	t.Parallel()
	tagged := []Instanced{
		IDEcho{Instance: 5},
		Opinion{Instance: 5},
		Input{Instance: 5},
		Prefer{Instance: 5},
		StrongPrefer{Instance: 5},
		NoPreference{Instance: 5},
		NoStrongPreference{Instance: 5},
	}
	for _, p := range tagged {
		if p.InstanceID() != 5 {
			t.Fatalf("%T.InstanceID() = %d, want 5", p, p.InstanceID())
		}
	}
}

func TestTallyCountsByValueAndPicksBest(t *testing.T) {
	t.Parallel()
	var tl Tally
	if v, n := tl.Best(); n != 0 || !v.Equal(Value{}) {
		t.Fatalf("empty Best = (%v, %d)", v, n)
	}
	tl.Add(V(4), 1)
	tl.Add(Bot(), 2)
	tl.Add(V(4), 1)
	tl.Add(V(1), 0)  // k ≤ 0 counts nothing
	tl.Add(V(9), -3) //
	tl.Add(V(-2), 1)
	got := make(map[ValueKey]int)
	for v, n := range tl.All() {
		if _, dup := got[v.Key()]; dup {
			t.Fatalf("All yielded %v twice", v)
		}
		got[v.Key()] = n
	}
	want := map[ValueKey]int{V(4).Key(): 2, Bot().Key(): 2, V(-2).Key(): 1}
	if len(got) != len(want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("All = %v, want %v", got, want)
		}
	}
	// 4 and ⊥ tie at 2; ⊥ sorts before every real value.
	if v, n := tl.Best(); n != 2 || !v.IsBot {
		t.Fatalf("Best = (%v, %d), want (⊥, 2)", v, n)
	}
	tl.Add(V(-2), 2)
	if v, n := tl.Best(); n != 3 || !v.Equal(V(-2)) {
		t.Fatalf("Best = (%v, %d), want (-2, 3)", v, n)
	}
	// Reset empties the tally, and a count of no more values than it
	// held before reuses its storage.
	tl.Reset()
	if v, n := tl.Best(); n != 0 || !v.Equal(Value{}) {
		t.Fatalf("Best after Reset = (%v, %d)", v, n)
	}
	held := &tl.votes[:1][0]
	tl.Add(V(7), 1)
	tl.Add(Bot(), 3)
	tl.Add(V(8), 2)
	if &tl.votes[0] != held {
		t.Fatal("a reset tally recounted into new storage")
	}
	if v, n := tl.Best(); n != 3 || !v.IsBot {
		t.Fatalf("Best of the recount = (%v, %d), want (⊥, 3)", v, n)
	}
}

// Ballot sorts the five tallied payloads into the three tallied kinds —
// a marker under the kind it stands in for, without an opinion — keeps
// their instance tags, and rejects everything else; the three kinds fill
// the slots 0..BallotKinds-1.
func TestBallotClassifiesTheTalliedPayloads(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		p        Payload
		kind     Kind
		instance uint64
		x        Value
		opinion  bool
	}{
		{Input{Instance: 3, X: V(1)}, KindInput, 3, V(1), true},
		{Prefer{X: Bot()}, KindPrefer, 0, Bot(), true},
		{NoPreference{Instance: 9}, KindPrefer, 9, Value{}, false},
		{StrongPrefer{Instance: 2, X: V(-4)}, KindStrongPrefer, 2, V(-4), true},
		{NoStrongPreference{Instance: 2}, KindStrongPrefer, 2, Value{}, false},
		{Opinion{Instance: 3, X: V(1)}, 0, 0, Value{}, false},
		{IDEcho{Instance: 3, Candidate: 5}, 0, 0, Value{}, false},
		{Init{}, 0, 0, Value{}, false},
	} {
		kind, instance, x, opinion := Ballot(tc.p)
		if kind != tc.kind || instance != tc.instance || !x.Equal(tc.x) || opinion != tc.opinion {
			t.Errorf("Ballot(%#v) = (%v, %d, %v, %v), want (%v, %d, %v, %v)",
				tc.p, kind, instance, x, opinion, tc.kind, tc.instance, tc.x, tc.opinion)
		}
	}
	for slot, kind := range []Kind{KindInput, KindPrefer, KindStrongPrefer} {
		if BallotSlot(kind) != slot {
			t.Errorf("BallotSlot(%v) = %d, want %d", kind, BallotSlot(kind), slot)
		}
	}
	if BallotKinds != 3 {
		t.Errorf("BallotKinds = %d", BallotKinds)
	}
}
