package wire

// BallotKinds is the number of message kinds a consensus phase tallies —
// input, prefer, strongprefer — which are consecutive on the wire.
const BallotKinds = 3

// BallotSlot indexes per-kind state (a [BallotKinds] array) by tallied
// kind.
func BallotSlot(kind Kind) int { return int(kind - KindInput) }

// Ballot classifies p for the tallies of Algorithms 3 and 5: the tallied
// kind it belongs to (0 when it is not a ballot), its instance tag, and
// its value when it carries an opinion. A no-quorum marker belongs to the
// kind it stands in for without an opinion: its sender is present (so
// nothing is substituted for it) but contributes nothing.
func Ballot(p Payload) (kind Kind, instance uint64, x Value, opinion bool) {
	switch p := p.(type) {
	case Input:
		return KindInput, p.Instance, p.X, true
	case Prefer:
		return KindPrefer, p.Instance, p.X, true
	case NoPreference:
		return KindPrefer, p.Instance, Value{}, false
	case StrongPrefer:
		return KindStrongPrefer, p.Instance, p.X, true
	case NoStrongPreference:
		return KindStrongPrefer, p.Instance, Value{}, false
	}
	return 0, 0, Value{}, false
}
