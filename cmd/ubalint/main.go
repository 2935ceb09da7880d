// ubalint is the repo's static-analysis gate: a go/analysis
// multichecker running the custom pass that certifies the protocols'
// message-complexity contracts (complexity, fed by the interprocedural
// summary fact pass — see internal/lint and DESIGN.md "Static
// analysis"). Buffer recycling, Process isolation, allocation-freedom,
// determinism and wire registration are held at run time instead: by
// internal/spec's retention check in every spec differential, the
// -race worker-count equivalence matrix (CI's "Process isolation
// gate"), the zero-alloc gates (CI's "Zero-alloc gate"), the seed- and
// worker-count determinism tests and the spec differentials, and
// internal/wire's round-trip and naming tests.
//
// It speaks the unitchecker protocol, so it is driven through go vet,
// which handles package loading, export data, and ./... expansion:
//
//	go build -o bin/ubalint ./cmd/ubalint
//	go vet -vettool=bin/ubalint ./...
//
// or simply:
//
//	make lint
//
// False positives are suppressed in-source with
// //lint:allow <pass> <reason> (the reason is mandatory). The message-
// complexity contracts the complexity pass certifies are the Go table
// internal/complexity.Registry.
package main

import (
	"uba/internal/lint"

	"golang.org/x/tools/go/analysis/unitchecker"
)

func main() {
	unitchecker.Main(lint.Analyzers()...)
}
