# Convenience targets for the reproduction. Everything is plain `go`
# underneath; the targets only fix the invocations used in EXPERIMENTS.md.

GO ?= go

.PHONY: all build test test-short race cover bench bench-e2e bench-json perf-smoke chaos-smoke mutants experiments experiments-md fuzz examples vet lint loc clean

all: vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: the repo's own go/analysis suite (cmd/ubalint) run
# over every package via go vet's -vettool protocol. The four passes —
# retainenv, determinism, wirereg, complexity — enforce the simnet
# engine, wire-registration and message-complexity contracts, fed by
# the interprocedural summary fact pass; see DESIGN.md "Static analysis"
# and internal/lint. The step task's ownership and non-blocking rules,
# the Process isolation contract and the round's allocation-freedom are
# runtime-tested instead (the race job's "Step-task ownership gate",
# "Process isolation gate" and "Zero-alloc gate").
# Suppress a false positive in-source with: //lint:allow <pass> <reason>
#
# bin/ubalint is a real make target: it rebuilds only when the linter's
# sources (cmd/ubalint, internal/lint, internal/complexity, the
# vendored x/tools) change, so repeated `make lint` runs skip the build.
LINT_SRCS := $(shell find cmd/ubalint internal/lint internal/complexity vendor/golang.org/x/tools -name '*.go' -not -path '*/testdata/*') go.mod

bin/ubalint: $(LINT_SRCS)
	$(GO) build -o $@ ./cmd/ubalint

lint: bin/ubalint
	$(GO) vet -vettool=bin/ubalint ./...

# Code size, the way CHANGES.md quotes it: Go lines that are not tests,
# testdata, blank or whole-line comments, per layer; TLOC counts the
# test files' lines the same way.
LOC = find $(1) -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'
TLOC = find $(1) -name '*_test.go' -not -path '*/testdata/*' | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'
loc:
	@echo "internal/core/{rotor,consensus,parallelcon}        $$($(call LOC,internal/core/rotor internal/core/consensus internal/core/parallelcon))"
	@echo "internal/core + census + wire                      $$($(call LOC,internal/core internal/census internal/wire))"
	@echo "internal/simnet                                    $$($(call LOC,internal/simnet))"
	@echo "internal/lint                                      $$($(call LOC,internal/lint))"
	@echo "internal/lint + internal/complexity + cmd/ubalint  $$($(call LOC,internal/lint internal/complexity cmd/ubalint))"
	@echo "internal/spec                                      $$($(call LOC,internal/spec))"
	@echo "internal/core tests                                $$($(call TLOC,internal/core))"

test:
	$(GO) test ./...

# Mutation check: each hand mutant in internal/spec/testdata/mutants (one
# patch per mutant: protocol slips, and a seeded allocation per file of
# the round path that a zero-alloc gate must kill) is applied alone to a
# copy of the tracked files, and
# the target fails if `go test ./internal/core/... ./internal/census/...
# ./internal/simnet/...` passes with any of them, or fails without a
# failing test (a mutant that does not build). Each line names the mutant and the top-level
# tests (package.Test) that killed it.
MUTANTS = $(sort $(wildcard internal/spec/testdata/mutants/*.patch))
mutants:
	@tree=$$(mktemp -d) && trap 'rm -rf "$$tree"' EXIT && \
	git ls-files -z | xargs -0 cp --parents -t "$$tree" && survived=0 && \
	for p in $(MUTANTS); do \
		(cd "$$tree" && git apply "$(CURDIR)/$$p") || exit 1; \
		if (cd "$$tree" && $(GO) test -count=1 ./internal/core/... ./internal/census/... ./internal/simnet/... >"$$tree/.log" 2>&1); then \
			echo "SURVIVED $$p"; survived=1; \
		elif killers=$$(awk '/^--- FAIL: /{t[++k]=$$3} /^(FAIL|ok)\tuba\//{n=split($$2,d,"/"); for(i=1;i<=k;i++) print d[n] "." t[i]; k=0}' "$$tree/.log" | sort -u) && [ -n "$$killers" ]; then \
			echo "killed   $$p by" $$killers; \
		else \
			echo "NO TEST FAILED (does it build?) $$p"; survived=1; \
		fi; \
		(cd "$$tree" && git apply -R "$(CURDIR)/$$p") || exit 1; \
	done; exit $$survived

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark (BENCHMARK.json): five end-to-end workloads
# through the public uba.* entry points, full JSON report on stdout.
# Workloads, metrics and `-compare` are documented in bench/README.md.
bench-e2e:
	$(GO) run ./bench

# Round-engine micro-benchmarks (full rounds n=32…16384, step and route
# phases, the Campaign/jobs={1,2,4,8}/n=256 ladder at the host's
# GOMAXPROCS) plus end-to-end runs through the public entry points
# (e2e/* rows: uba.Consensus at n=128 and n=256; renaming, trb, rb,
# uba.Rotor and uba.ApproximateAgreement at n=256; uba.ParallelConsensus
# and uba.InteractiveConsistency at n=128; a 200-round
# OrderingCluster session at n=32; the 24-cell fault-plan chaos campaign
# with the families' oracle suites attached; uba.Consensus at n=1024 with
# one and with two step workers, the pair that prices Config.Workers) as JSON.
# Every row is one measurement loop: setup, one untimed warm-up op
# (cold_ns, cold_bytes), then a fixed count of timed ops, so two runs give
# every row the same `iterations`. BENCH_simnet.json is committed so the
# perf trajectory is tracked in-repo; regenerate after touching
# internal/simnet or a protocol Step.
bench-json:
	$(GO) run ./cmd/ubabench -benchjson -benchout BENCH_simnet.json

# Perf regression gate: re-measures the n=256 round/step/route
# benchmarks, the route rows the zero-alloc gate certifies, the
# Campaign/jobs=4/n=256 row and the end-to-end e2e/* rows, each the way
# bench-json does, and enforces per-row ns/op and allocs/op bands against
# the committed BENCH_simnet.json. A row outside its band fails the target;
# escape hatch for an understood, not-yet-rebaselined change:
#   make perf-smoke PERFSMOKE_FLAGS=-warn-only
PERFSMOKE_FLAGS ?=
perf-smoke:
	$(GO) run ./cmd/ubabench -perfsmoke $(PERFSMOKE_FLAGS)

# Seeded chaos campaign: random Byzantine coalitions against every
# protocol family with online safety oracles attached (agreement,
# validity, termination, no-forged-sender). A violation is shrunk to a
# minimal repro, written to chaos-repro.json (replay with
# `go run ./cmd/ubasim -repro chaos-repro.json`), and fails the target.
# The second invocation repeats the campaign under generated
# Byzantine-scoped fault plans (partitions quarantining the coalition,
# loss on its links, crash/recover churn): all in-model behaviors, so
# any oracle firing there is equally a bug; its repro lands in
# chaos-faults-repro.json. The third repeats the faulted campaign at
# n = 46 (31 correct + 15 Byzantine nodes, at the n > 3f limit), where
# the thresholds' rounding edges differ from n = 9's; its repro lands in
# chaos-size-repro.json.
chaos-smoke:
	$(GO) run ./cmd/ubasweep -chaos -seeds 25 -repro-out chaos-repro.json
	$(GO) run ./cmd/ubasweep -chaos -faults byzantine -seeds 25 -repro-out chaos-faults-repro.json
	$(GO) run ./cmd/ubasweep -chaos -chaos-n 46 -faults byzantine -seeds 25 -repro-out chaos-size-repro.json

# Regenerate every experiment table (E1-E21) as text.
experiments:
	$(GO) run ./cmd/ubabench

# Regenerate the Markdown tables appended to EXPERIMENTS.md.
experiments-md:
	$(GO) run ./cmd/ubabench -markdown

fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzValueOrdering -fuzztime 30s
	$(GO) test ./internal/simnet/ -run '^$$' -fuzz FuzzRouteDedup -fuzztime 30s

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensorfusion
	$(GO) run ./examples/eventlog
	$(GO) run ./examples/cluster
	$(GO) run ./examples/clocksync

clean:
	$(GO) clean -testcache
	rm -rf bin
