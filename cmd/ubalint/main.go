// ubalint is the repo's static-analysis gate: a go/analysis
// multichecker running the six custom passes that enforce the simnet
// engine and wire contracts (retainenv, determinism, wirereg,
// complexity, noalloc, plus the interprocedural summary fact pass — see
// internal/lint and DESIGN.md "Static analysis"). Process isolation is
// held at run time instead, by the -race worker-count equivalence
// matrix (CI's "Process isolation gate").
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
