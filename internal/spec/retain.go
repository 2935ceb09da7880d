package spec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"uba/internal/simnet"
)

// This file is the retention check every Family.Test run and every
// Checked process makes: a Step must not keep the memory its round lends
// it, because the engine rewrites that memory on the next round and a
// node that kept it reads another round's deliveries, and fails nowhere.
// Before each Step the check notes what the round lends — the RoundEnv,
// the inbox's block and arena and their keys, the env's send buffers,
// Inbox.Said with its By rows, and Inbox.Broadcasters — and after it
// walks everything the Process reaches and reports the first of:
//
//   - a pointer or slice into lent memory;
//   - a *simnet.Counted outside a simnet.EchoList, the one round-scoped
//     value a Step may keep;
//   - a non-nil func or chan, whose captures reflection cannot see.
//
// It sees only what the Process reaches: package-level state is the
// Process isolation gate's to catch.

// span is memory a round lends, named for the report.
type span struct {
	lo, hi uintptr
	what   string
}

// hop is one step of the path from the Process to a value: a field, an
// index, or a map key.
type hop struct {
	field string
	index int
	key   reflect.Value
}

type visit struct {
	at uintptr
	p  *plan
	n  int
}

// plan is what the walk needs of a type, built once per check: whether
// a value of it can reach memory the walk must look at (strings cannot
// reach a round's scratch; a simnet.EchoList may be kept), the plans of
// what it holds, and its size.
type plan struct {
	pointers bool
	counted  bool // simnet.Counted
	size     uintptr
	key      *plan // a map's
	elem     *plan // a pointer's, slice's, array's or map's
	fields   []field
}

// field is a struct field that can reach memory.
type field struct {
	i    int
	name string
	p    *plan
}

// retention is one Process's check, reused round over round.
type retention struct {
	lent  []span
	plans map[reflect.Type]*plan
	seen  map[visit]bool
	path  []hop
	found string
}

var (
	countedType  = reflect.TypeOf(simnet.Counted{})
	echoListType = reflect.TypeOf(simnet.EchoList{})
)

// lend notes the memory env lends the coming Step.
func (c *retention) lend(env *simnet.RoundEnv) {
	c.lent = append(c.lent[:0], span{uintptr(unsafe.Pointer(env)), uintptr(unsafe.Pointer(env)) + unsafe.Sizeof(*env), "RoundEnv"})
	e, in := reflect.ValueOf(env).Elem(), reflect.ValueOf(&env.Inbox).Elem()
	for _, f := range []string{"bcast", "bkeys", "uni", "ukeys"} {
		c.lendSlice(in.FieldByName(f), "inbox."+f)
	}
	c.lendSlice(e.FieldByName("sends"), "env.sends")
	c.lendSlice(e.FieldByName("enc"), "env.enc")
	said := env.Inbox.Said()
	c.lendSlice(reflect.ValueOf(said), "Said()")
	if len(said) > 0 {
		// The By rows lie back to back in one slab.
		first, last := reflect.ValueOf(said[0].By), reflect.ValueOf(said[len(said)-1].By)
		if first.Cap() > 0 {
			c.lent = append(c.lent, span{first.Pointer(), last.Pointer() + uintptr(last.Cap())*last.Type().Elem().Size(), "a Said().By row"})
		}
	}
	c.lendSlice(reflect.ValueOf(env.Inbox.Broadcasters()), "Broadcasters()")
}

func (c *retention) lendSlice(v reflect.Value, what string) {
	if v.Cap() > 0 {
		c.lent = append(c.lent, span{v.Pointer(), v.Pointer() + uintptr(v.Cap())*v.Type().Elem().Size(), what})
	}
}

// kept walks everything p reaches and returns the first finding, or "".
func (c *retention) kept(p simnet.Process) string {
	if c.seen == nil {
		c.seen, c.plans = make(map[visit]bool), make(map[reflect.Type]*plan)
	}
	clear(c.seen)
	c.path, c.found = c.path[:0], ""
	v := reflect.ValueOf(p)
	c.walk(v, c.plan(v.Type()))
	return c.found
}

func (c *retention) walk(v reflect.Value, p *plan) {
	if c.found != "" {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if p.elem.counted {
			c.report("keeps a counted view")
			return
		}
		if !c.overlaps(v.Pointer(), max(p.elem.size, 1)) && c.first(v.Pointer(), p.elem, 0) {
			c.walk(v.Elem(), p.elem)
		}
	case reflect.Slice:
		if !v.IsNil() && !c.overlaps(v.Pointer(), max(uintptr(v.Cap())*p.elem.size, 1)) && c.first(v.Pointer(), p.elem, v.Len()) {
			c.elems(v, p.elem)
		}
	case reflect.Array:
		if p.elem.pointers {
			c.elems(v, p.elem)
		}
	case reflect.Struct:
		for _, f := range p.fields {
			c.path = append(c.path, hop{field: f.name})
			c.walk(v.Field(f.i), f.p)
			c.path = c.path[:len(c.path)-1]
		}
	case reflect.Map:
		if v.IsNil() || !p.key.pointers && !p.elem.pointers || !c.first(v.Pointer(), p, 0) {
			return
		}
		for it := v.MapRange(); it.Next(); {
			c.path = append(c.path, hop{key: it.Key()})
			c.walk(it.Key(), p.key)
			c.walk(it.Value(), p.elem)
			c.path = c.path[:len(c.path)-1]
		}
	case reflect.Interface:
		if !v.IsNil() {
			c.walk(v.Elem(), c.plan(v.Elem().Type()))
		}
	case reflect.Func, reflect.Chan:
		if !v.IsNil() {
			c.report(fmt.Sprintf("holds a %s, which the retention check cannot see into", v.Kind()))
		}
	case reflect.UnsafePointer:
		c.overlaps(v.Pointer(), 1)
	}
}

func (c *retention) elems(v reflect.Value, p *plan) {
	for i := range v.Len() {
		c.path = append(c.path, hop{index: i})
		c.walk(v.Index(i), p)
		c.path = c.path[:len(c.path)-1]
	}
}

// first reports whether the value of plan p (n of them, for a slice) at
// at is to be walked: it can reach memory, and this walk has not been
// there yet. It notes the visit.
func (c *retention) first(at uintptr, p *plan, n int) bool {
	k := visit{at, p, n}
	if !p.pointers || c.seen[k] {
		return false
	}
	c.seen[k] = true
	return true
}

// overlaps reports, and reports to the check, whether [at, at+size)
// overlaps memory the round lent.
func (c *retention) overlaps(at, size uintptr) bool {
	for _, s := range c.lent {
		if at < s.hi && at+size > s.lo {
			c.report("refers to " + s.what)
			return true
		}
	}
	return false
}

func (c *retention) report(what string) {
	var b strings.Builder
	b.WriteString("node")
	for _, h := range c.path {
		switch {
		case h.field != "":
			b.WriteString("." + h.field)
		case h.key.IsValid():
			fmt.Fprintf(&b, "[%v]", h.key)
		default:
			fmt.Fprintf(&b, "[%d]", h.index)
		}
	}
	c.found = b.String() + " " + what
}

// plan returns t's plan, building it on first use.
func (c *retention) plan(t reflect.Type) *plan {
	if p, ok := c.plans[t]; ok {
		return p
	}
	p := &plan{size: t.Size(), counted: t == countedType}
	c.plans[t] = p
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		p.pointers, p.elem = true, c.plan(t.Elem())
	case reflect.Map:
		p.pointers, p.key, p.elem = true, c.plan(t.Key()), c.plan(t.Elem())
	case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		p.pointers = true
	case reflect.Array:
		p.elem = c.plan(t.Elem())
		p.pointers = t.Len() > 0 && p.elem.pointers
	case reflect.Struct:
		for i := 0; i < t.NumField() && t != echoListType; i++ {
			f := t.Field(i)
			if fp := c.plan(f.Type); fp.pointers {
				p.fields = append(p.fields, field{i, f.Name, fp})
			}
		}
		p.pointers = len(p.fields) > 0
	}
	return p
}

// checked is a Process that makes the retention check around each of
// its Steps and fails t at the first finding.
type checked struct {
	simnet.Process
	t      testing.TB
	check  retention
	failed bool
}

// Checked wraps p so that each of its Steps is checked for memory it
// keeps from its round; the first finding fails t. Keep it out of runs
// that count allocations: the walk allocates.
func Checked(t testing.TB, p simnet.Process) simnet.Process {
	return &checked{Process: p, t: t}
}

// Step implements simnet.Process.
func (c *checked) Step(env *simnet.RoundEnv) {
	if c.failed {
		c.Process.Step(env)
		return
	}
	c.check.lend(env)
	c.Process.Step(env)
	if found := c.check.kept(c.Process); found != "" {
		c.failed = true
		c.t.Errorf("%v in round %d: %s", c.ID(), env.Round, found)
	}
}
