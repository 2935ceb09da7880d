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
// //lint:allow <pass> <reason> (the reason is mandatory).
//
// A second mode serves the runtime half of the complexity
// certification:
//
//	ubalint -complexity-dump [root]
//
// scans the tree under root (default ".") for //lint:complexity
// directives and prints the certified contract table as JSON — the
// same table internal/complexity.Registry pins and the runtime oracle
// enforces.
//
// A third mode inventories every certified contract at once:
//
//	ubalint -contracts-dump [root]
//
// emits one JSON object with the //lint:complexity table plus the
// function-level //lint:noalloc and doc-level //lint:coldpath
// directives with their reasons — the
// per-commit contracts artifact CI archives.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"uba/internal/complexity"
	"uba/internal/lint"

	"golang.org/x/tools/go/analysis/unitchecker"
)

func main() {
	if len(os.Args) > 1 {
		root := "."
		if len(os.Args) > 2 {
			root = os.Args[2]
		}
		switch os.Args[1] {
		case "-complexity-dump":
			exitOnErr(dumpComplexity(root, os.Stdout))
			return
		case "-contracts-dump":
			exitOnErr(dumpContracts(root, os.Stdout))
			return
		}
	}
	unitchecker.Main(lint.Analyzers()...)
}

func exitOnErr(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ubalint:", err)
		os.Exit(1)
	}
}

// dumpComplexity emits the scanned //lint:complexity directive table
// as indented JSON, sorted by (family, type).
func dumpComplexity(root string, w *os.File) error {
	dirs, err := complexity.Scan(root)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dirs)
}

// contractsInventory is the -contracts-dump schema: every certified
// contract in the tree, keyed by directive kind.
type contractsInventory struct {
	// Complexity is the //lint:complexity table, as -complexity-dump
	// emits it.
	Complexity []complexity.Directive `json:"complexity"`
	// Noalloc and Coldpath are the function-level hot-path contracts:
	// proven allocation-free and declared cold (fact cleared), each with
	// its mandatory reason.
	Noalloc  []complexity.FuncDirective `json:"noalloc"`
	Coldpath []complexity.FuncDirective `json:"coldpath"`
}

// dumpContracts emits the full certified-contracts inventory as one
// indented JSON object.
func dumpContracts(root string, w *os.File) error {
	inv := contractsInventory{}
	var err error
	if inv.Complexity, err = complexity.Scan(root); err != nil {
		return err
	}
	fns, err := complexity.ScanFuncDirectives(root, "noalloc", "coldpath")
	if err != nil {
		return err
	}
	for _, d := range fns {
		switch d.Directive {
		case "noalloc":
			inv.Noalloc = append(inv.Noalloc, d)
		case "coldpath":
			inv.Coldpath = append(inv.Coldpath, d)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(inv)
}
