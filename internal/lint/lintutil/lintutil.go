// Package lintutil holds the pieces shared by the ubalint analyzers:
// recognition of the simnet.RoundEnv type and handling of //lint:allow
// suppression directives.
//
// Suppression syntax, checked by every pass:
//
//	//lint:allow <pass> <reason>
//
// where <pass> is the analyzer name (complexity) or "all", and <reason>
// is free text explaining why the finding is a false positive or an
// accepted risk. The reason is mandatory: a directive without one is
// itself reported and suppresses nothing. A directive suppresses matching diagnostics on
// its own line and on the following line, so it can either trail the
// offending statement or sit on its own line directly above it.
//
// A directive that names a specific pass but suppresses no diagnostic
// of that pass is itself reported (by Done) so stale allows cannot rot
// in the tree after the code they excused is refactored away. Blanket
// "all" directives are exempt from unused detection: each pass runs
// independently and cannot see whether another pass used the directive.
package lintutil

import (
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// directive is one parsed //lint:allow comment naming this pass.
type directive struct {
	pos    token.Pos
	pass   string // the named pass, or "all"
	used   bool   // a diagnostic was suppressed by this directive
	forAll bool
}

// Suppressor filters an analyzer's diagnostics through the //lint:allow
// directives of the package under analysis. Create one per pass run
// with NewSuppressor, report every finding through Reportf, and call
// Done at the end of the run to flag directives that suppressed
// nothing.
type Suppressor struct {
	pass *analysis.Pass
	name string
	// allowed maps filename -> line -> directives covering that line.
	allowed    map[string]map[int][]*directive
	directives []*directive
}

// NewSuppressor scans every file of the pass for //lint:allow directives
// naming the analyzer (or "all") and returns a Suppressor for it.
// Malformed directives (unknown form, missing reason) are reported
// immediately so they cannot silently suppress nothing.
func NewSuppressor(pass *analysis.Pass, name string) *Suppressor {
	s := &Suppressor{pass: pass, name: name, allowed: make(map[string]map[int][]*directive)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					pass.Reportf(c.Pos(), "malformed //lint:allow directive: want //lint:allow <pass> <reason>")
					continue
				}
				if fields[0] != name && fields[0] != "all" {
					continue // directive for another pass
				}
				if len(fields) < 2 {
					pass.Reportf(c.Pos(), "//lint:allow %s is missing a reason", fields[0])
					continue
				}
				d := &directive{pos: c.Pos(), pass: fields[0], forAll: fields[0] == "all"}
				s.directives = append(s.directives, d)
				pos := pass.Fset.Position(c.Pos())
				lines := s.allowed[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*directive)
					s.allowed[pos.Filename] = lines
				}
				// A directive covers its own line and the next one, so it
				// can trail the offending statement or sit above it.
				lines[pos.Line] = append(lines[pos.Line], d)
				lines[pos.Line+1] = append(lines[pos.Line+1], d)
			}
		}
	}
	return s
}

// Reportf reports a diagnostic at pos unless an applicable //lint:allow
// directive covers that line; a covering directive is marked used.
func (s *Suppressor) Reportf(pos token.Pos, format string, args ...any) {
	p := s.pass.Fset.Position(pos)
	if ds := s.allowed[p.Filename][p.Line]; len(ds) > 0 {
		for _, d := range ds {
			d.used = true
		}
		return
	}
	s.pass.Reportf(pos, format, args...)
}

// Done reports every directive naming this pass that suppressed no
// diagnostic during the run. Call it after the pass has reported all
// its findings. Blanket "all" directives are not checked (no single
// pass can tell whether another pass used them).
func (s *Suppressor) Done() {
	for _, d := range s.directives {
		if !d.forAll && !d.used {
			s.pass.Reportf(d.pos,
				"unused //lint:allow %s directive: it suppresses no %s diagnostic", d.pass, d.pass)
		}
	}
}

// IsRoundEnvPtr reports whether t is *simnet.RoundEnv. The match is by
// package name and type name rather than full import path so that
// analyzer test fixtures can supply their own small simnet stand-in.
func IsRoundEnvPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RoundEnv" && obj.Pkg() != nil && obj.Pkg().Name() == "simnet"
}
