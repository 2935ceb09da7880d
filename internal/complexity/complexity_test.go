package complexity_test

import (
	"encoding/json"
	"strings"
	"testing"

	"uba/internal/complexity"
)

// TestRegistryMatchesDirectives pins the authoritative registry — the
// copy the runtime oracle loads — against the //lint:complexity
// directives in the protocol tree that the lint pass certifies. A
// drifted, deleted, or added directive fails here rather than silently
// weakening (or tightening) the runtime bound.
func TestRegistryMatchesDirectives(t *testing.T) {
	dirs, err := complexity.Scan("../core")
	if err != nil {
		t.Fatal(err)
	}
	reg := complexity.Registry()
	if len(dirs) != len(reg) {
		t.Errorf("scanned %d directives under internal/core, registry has %d entries", len(dirs), len(reg))
	}
	for i := 0; i < len(dirs) && i < len(reg); i++ {
		d, e := dirs[i], reg[i]
		if d.Family != e.Family || d.Type != e.Type {
			t.Errorf("entry %d: directive %s.%s vs registry %s.%s", i, d.Family, d.Type, e.Family, e.Type)
			continue
		}
		if d.Contract != e.Contract {
			t.Errorf("%s.%s: directive declares %s, registry pins %s (%s)",
				d.Family, d.Type, d.Contract, e.Contract, d.Pos)
		}
	}
}

// TestScanFuncDirectives pins the function-level contract scanner the
// -contracts-dump inventory rides on: receiver-qualified names,
// mandatory reasons, and the known anchors of the certified hot path.
func TestScanFuncDirectives(t *testing.T) {
	dirs, err := complexity.ScanFuncDirectives("../simnet", "noalloc", "coldpath")
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		if d.Reason == "" {
			t.Errorf("%s %s.%s (%s): empty reason survived the scan", d.Directive, d.Package, d.Func, d.Pos)
		}
		if !strings.Contains(d.Pos, ".go:") {
			t.Errorf("%s %s.%s: malformed pos %q", d.Directive, d.Package, d.Func, d.Pos)
		}
		found[d.Directive+" "+d.Func] = true
	}
	// The round hot path's anchors: the route pass and the step task are
	// certified allocation-free, and the scratch release is declared
	// cold. These names changing is a real contract change.
	for _, want := range []string{
		"noalloc (*Network).route",
		"noalloc (*Network).stepOne",
		"coldpath (*Network).releaseScratch",
	} {
		if !found[want] {
			t.Errorf("scan of internal/simnet missing %q (have %d directives)", want, len(dirs))
		}
	}
}

// TestClassRoundTrip checks String/ParseClass/JSON agree on every
// class.
func TestClassRoundTrip(t *testing.T) {
	for _, c := range []complexity.Class{
		complexity.None, complexity.Const, complexity.Linear, complexity.Quadratic,
	} {
		parsed, err := complexity.ParseClass(c.String())
		if err != nil || parsed != c {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", c.String(), parsed, err, c)
		}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %v: %v", c, err)
		}
		var back complexity.Class
		if err := json.Unmarshal(data, &back); err != nil || back != c {
			t.Errorf("JSON round trip of %v via %s: got %v, %v", c, data, back, err)
		}
	}
	if _, err := complexity.ParseClass("O(n^3)"); err == nil {
		t.Error("ParseClass accepted O(n^3)")
	}
}

// TestParseContract covers the argument grammar: omitted keys default
// to None, duplicates and unknown keys are errors.
func TestParseContract(t *testing.T) {
	ct, err := complexity.ParseContract(" broadcasts=O(n^2) unicasts=O(n)")
	if err != nil {
		t.Fatal(err)
	}
	want := complexity.Contract{Broadcasts: complexity.Quadratic, Unicasts: complexity.Linear}
	if ct != want {
		t.Errorf("got %s, want %s", ct, want)
	}
	if ct, err := complexity.ParseContract(" broadcasts=O(1)"); err != nil || ct.Unicasts != complexity.None {
		t.Errorf("omitted unicasts: got %v, %v", ct, err)
	}
	for _, bad := range []string{
		" broadcasts=O(1) broadcasts=O(n)",
		" messages=O(n)",
		" broadcasts",
		" broadcasts=O(log n)",
	} {
		if _, err := complexity.ParseContract(bad); err == nil {
			t.Errorf("ParseContract(%q) accepted", bad)
		}
	}
}

// TestBound pins the budget arithmetic the oracle applies.
func TestBound(t *testing.T) {
	cases := []struct {
		c        complexity.Class
		n, slack int
		want     int
	}{
		{complexity.None, 10, 8, 0},
		{complexity.Const, 10, 8, 8},
		{complexity.Linear, 10, 8, 80},
		{complexity.Quadratic, 10, 8, 800},
	}
	for _, tc := range cases {
		if got := tc.c.Bound(tc.n, tc.slack); got != tc.want {
			t.Errorf("%s.Bound(%d, %d) = %d, want %d", tc.c, tc.n, tc.slack, got, tc.want)
		}
	}
}

// TestLookup checks the primary-type lookup the campaigns use.
func TestLookup(t *testing.T) {
	ct, ok := complexity.Lookup("ordering")
	if !ok || ct.Broadcasts != complexity.Quadratic || ct.Unicasts != complexity.Linear {
		t.Errorf("Lookup(ordering) = %v, %v", ct, ok)
	}
	if _, ok := complexity.Lookup("earlydecide"); ok {
		t.Error("Lookup(earlydecide) found a contract")
	}
}
