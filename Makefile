# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test test-par test-par-smoke test-resume test-race bench bench-smoke ci lint static-analysis analyze-sarif fmt fmt-check coverage clean

all: build

# The full tier-1 gate, in the order CI runs it: format check (a no-op
# without ocamlformat), strict-warning build, test suite (which itself
# depends on the repo-analyzes-clean gate via the @runtest alias), the
# parallel-scheduler smoke pass, the standalone analyzer pass, and the
# layered benchmark's own checks.
ci: fmt-check build test test-par-smoke test-race static-analysis bench-smoke

build:
	dune build @all

test:
	dune runtest

# Parallel determinism harness (test/test_parallel.ml): seeded qcheck
# properties asserting jobs=1 and jobs=N return byte-identical
# architectures, the work-stealing scheduler properties, and the
# jobs=4-vs-jobs=1 perf regression gate. Slow (spawns domains
# thousands of times), hence gated.
test-par:
	SOCTAM_SLOW_TESTS=1 dune build @runtest-slow

# The same harness at a twentieth of the iteration count (~1s): every
# scheduler path on every CI pass; the full sweep stays in test-par.
test-par-smoke:
	SOCTAM_SLOW_TESTS=1 SOCTAM_PAR_SMOKE=1 dune build @runtest-slow

# Run-lifecycle suite only (test/test_checkpoint.ml): checkpoint
# round-trips, corruption/truncation fuzz, and the kill-and-resume
# determinism properties from DESIGN.md §12.
test-resume: build
	dune exec test/test_main.exe -- test checkpoint

# Portfolio-racer suite only (test/test_race.ml): kill-and-resume at
# every slice boundary, jobs=1 vs jobs=4 byte-identity, the
# never-worse-than-best-solo property replayed against the committed
# 21-point engine-comparison grid, and first-proof termination. Runs
# from the build tree because the grid test reads data/pack_table.json
# relative to the test directory (the `dune runtest` convention).
test-race: build
	cd _build/default/test && ./test_main.exe test race

bench:
	dune exec bench/main.exe

# The layered benchmark's own checks (perfbench/README.md): the
# statistics and verdict selftest, then one instance per workload with
# one untraced and one traced pass (a few seconds).
bench-smoke:
	bash perfbench/run.sh selftest
	bash perfbench/run.sh run --smoke

# Static checks: the strict-warning build (see the root `dune` env
# stanza), the repo's own input lint over every built-in SOC, the
# source-level analyzer (DESIGN.md §13), and the ocamlformat check
# when the binary is installed (it is optional: the .ocamlformat
# profile is committed, the tool may not be).
lint: build static-analysis
	dune exec bin/soctam.exe -- lint d695
	dune exec bin/soctam.exe -- lint p21241
	dune exec bin/soctam.exe -- lint p31108
	dune exec bin/soctam.exe -- lint p93791
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

# Source-level determinism & domain-safety analysis: the syntactic
# families (DET-POLY, DET-ENTROPY, DOM-SHARED, API-DEPRECATED, IFACE)
# plus the Typedtree families (DOM-ESCAPE, LOCK-RAISE, ALLOC-HOT and
# the effect-inference families EFFECT-WORKER, OUTCOME-DROP,
# ENGINE-CAPS, TAU-DISCIPLINE) over lib/, bin/, bench/ and examples/,
# gated by analysis.baseline. The @lint-src alias builds @check first
# so every file has a .cmt and the typed pass covers the whole tree.
# Fails on any non-baselined finding.
static-analysis:
	dune build @lint-src

# The same run rendered as SARIF 2.1.0 into analysis.sarif, for code
# scanning UIs (GitHub code scanning ingests this file directly).
# Exit status still reflects the findings, so it can serve as a gate.
analyze-sarif:
	dune build @check bin/soctam.exe
	dune exec bin/soctam.exe -- analyze --root . --sarif analysis.sarif

fmt:
	dune build @fmt --auto-promote

# Format check alone (lint also runs it): a no-op with a note when
# ocamlformat is not installed, so CI images without the tool pass.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

# Line coverage of the search core (lib/core + lib/partition, the only
# instrumented libraries) over the tier-1 suite. Requires bisect_ppx;
# the instrumentation stanzas are inert without --instrument-with, so
# plain builds never need it.
coverage:
	@if ! command -v bisect-ppx-report >/dev/null 2>&1; then \
	  echo "bisect_ppx not installed (opam install bisect_ppx); skipping"; \
	else \
	  find . -name '*.coverage' -delete && \
	  dune runtest --force --instrument-with bisect_ppx && \
	  bisect-ppx-report html --tree -o _coverage \
	    --coverage-path _build/default && \
	  bisect-ppx-report summary --coverage-path _build/default && \
	  echo "report: _coverage/index.html"; \
	fi

clean:
	dune clean
