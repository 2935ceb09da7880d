// Package lint assembles the ubalint analyzer suite: the custom
// go/analysis passes that mechanically enforce the simulator's
// buffer-recycling and message-complexity contracts (see DESIGN.md
// "Static analysis" for what each pass proves and its known edges).
package lint

import (
	"uba/internal/lint/complexity"
	"uba/internal/lint/retainenv"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full ubalint suite in a fixed order. The
// summary fact pass is listed even though it exists primarily for its
// facts: as a root analyzer its directive-policing diagnostics (unused
// or inert //lint:valuecopy) are printed rather than swallowed by the
// driver.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		retainenv.Analyzer,
		complexity.Analyzer,
		summary.Analyzer,
	}
}
