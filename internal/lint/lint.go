// Package lint assembles the ubalint analyzer suite: the custom
// go/analysis passes that mechanically enforce the simulator's
// message-complexity contracts (see DESIGN.md "Static analysis" for
// what each pass proves and its known edges).
package lint

import (
	"uba/internal/lint/complexity"
	"uba/internal/lint/summary"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full ubalint suite in a fixed order: the
// complexity certifier and the summary fact pass it reads.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		complexity.Analyzer,
		summary.Analyzer,
	}
}
