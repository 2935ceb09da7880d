// Violating Step implementations: every way a round-scoped value can
// outlive the call that the retainenv pass models.
package retain

import "simnet"

var global *simnet.RoundEnv

// fieldStore retains env, the Inbox view, and an iterator over it in
// receiver fields.
type fieldStore struct {
	savedEnv   *simnet.RoundEnv
	savedInbox simnet.Inbox
	it         func(yield func(simnet.Received) bool)
	first      *simnet.Inbox
	all        []*simnet.RoundEnv
}

func (b *fieldStore) Step(env *simnet.RoundEnv) {
	b.savedEnv = env         // want `round-scoped env stored in field savedEnv`
	b.savedInbox = env.Inbox // want `round-scoped env\.Inbox stored in field savedInbox`
	global = env             // want `round-scoped env stored in package-level variable global`
	b.it = env.Inbox.All()   // want `round-scoped value stored in field it`
	p := &env.Inbox
	b.first = p                // want `round-scoped p stored in field first`
	b.all = append(b.all, env) // want `round-scoped value stored in field all`
}

// spawner leaks env into goroutines that outlive the Step call.
type spawner struct{ out []simnet.Received }

func (s *spawner) Step(env *simnet.RoundEnv) {
	go func() { // want `goroutine closure captures round-scoped env`
		s.out = append(s.out, env.Inbox.Slice()...)
	}()
	go record(env)           // want `round-scoped env passed to a goroutine`
	go env.Broadcast("late") // want `goroutine invokes a method value retaining round-scoped state`
}

func record(env *simnet.RoundEnv) {}

// channeler ships round-scoped values to another goroutine.
type channeler struct {
	envs    chan *simnet.RoundEnv
	inboxes chan simnet.Inbox
}

func (c *channeler) Step(env *simnet.RoundEnv) {
	c.envs <- env          // want `round-scoped env sent on a channel`
	c.inboxes <- env.Inbox // want `round-scoped env\.Inbox sent on a channel`
}

// closureKeeper stores a closure (and a dereferenced copy) that carry
// the recycled buffers past the round.
type closureKeeper struct {
	get  func() *simnet.RoundEnv
	copy simnet.RoundEnv
	m    map[int]*simnet.RoundEnv
}

func (k *closureKeeper) Step(env *simnet.RoundEnv) {
	k.get = func() *simnet.RoundEnv { // want `round-scoped value stored in field get`
		return env // want `round-scoped env returned, escaping the Step call`
	}
	k.copy = *env // want `round-scoped env stored in field copy`
	alias := env
	k.m[env.Round] = alias // want `round-scoped alias stored in a map or slice element`
}

// viewKeeper retains the payload-major views of the broadcast block —
// Said, Broadcasters, Direct — and parts of them: all are slices of the
// engine's recycled scratch, and a Said element copied out by value
// still carries one (By, a row of the slab).
type viewKeeper struct {
	said   []simnet.Said
	who    []int
	direct []simnet.Received
	one    simnet.Said
	by     []uint64
	rows   [][]uint64
}

func (k *viewKeeper) Step(env *simnet.RoundEnv) {
	k.said = env.Inbox.Said()        // want `round-scoped value stored in field said`
	k.who = env.Inbox.Broadcasters() // want `round-scoped value stored in field who`
	k.direct = env.Inbox.Direct()    // want `round-scoped value stored in field direct`
	for _, g := range env.Inbox.Said() {
		k.one = g                     // want `round-scoped g stored in field one`
		k.by = g.By                   // want `round-scoped g\.By stored in field by`
		k.rows = append(k.rows, g.By) // want `round-scoped value stored in field rows`
	}
	said := env.Inbox.Said()
	k.one = said[0]   // want `round-scoped said stored in field one`
	k.by = said[0].By // want `round-scoped said stored in field by`
}

// countedKeeper keeps, beside an allowed echo list, what the allowance
// does not cover: the counted view itself, a row of its Said, a Said.By
// row of the block, and the Inbox.
type countedKeeper struct {
	kept  simnet.EchoList
	view  *simnet.Counted
	by    []uint64
	inbox simnet.Inbox
}

func (k *countedKeeper) Step(env *simnet.RoundEnv) {
	view := env.Inbox.Counted(nil)
	k.kept = view.Echoes(0)
	k.view = view // want `round-scoped view stored in field view`
	for _, g := range view.Said() {
		k.by = g.By // want `round-scoped g\.By stored in field by`
	}
	k.by = env.Inbox.Said()[0].By // want `round-scoped value stored in field by`
	k.inbox = env.Inbox           // want `round-scoped env\.Inbox stored in field inbox`
}
