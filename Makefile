# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test test-par test-par-smoke test-resume test-race test-exact test-anneal test-core bench-smoke ci lint static-analysis analyze-sarif fmt fmt-check coverage loc clean

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
# thousands of times), hence gated. The same alias runs the wrapper
# oracle sweep (test/test_wrapper_slow.ml): the closed-form wrapper
# design against the chain-count sweep on 5,000 cores, widths 1..128
# (~50 s in all, ~40 s of it the oracle, on a 2-vCPU host).
test-par:
	SOCTAM_SLOW_TESTS=1 dune build @runtest-slow

# The same harnesses at a twentieth of the iteration count (~1s, and
# ~2s for 250 oracle cores): every scheduler path and every wrapper
# regime on every CI pass; the full sweeps stay in test-par.
test-par-smoke:
	SOCTAM_SLOW_TESTS=1 SOCTAM_PAR_SMOKE=1 dune build @runtest-slow

# Run-lifecycle suite only (test/test_checkpoint.ml): checkpoint
# round-trips, corruption/truncation fuzz, and the kill-and-resume
# determinism properties from DESIGN.md §12. Runs from the build tree,
# like test-race, because the version-1 rejection test reads
# data/checkpoint_v1.json relative to the test directory.
test-resume: build
	cd _build/default/test && ./test_main.exe test checkpoint

# Portfolio-racer suite only (test/test_race.ml): kill-and-resume at
# every slice boundary, jobs=1 vs jobs=4 byte-identity, the
# never-worse-than-best-solo property replayed against the committed
# 21-point engine-comparison grid, and first-proof termination. Runs
# from the build tree because the grid test reads data/pack_table.json
# relative to the test directory (the `dune runtest` convention).
test-race: build
	cd _build/default/test && ./test_main.exe test race

# Exact-solver suite only (test/test_ilp.ml): the branch & bound's
# visit-order and heavy-finish pins, the LP dual against the primal
# relaxation and the integer optimum, and the exhaustive engine's d695
# guard. Runs from the build tree, like test-race.
test-exact: build
	cd _build/default/test && ./test_main.exe test ilp

# Search-core suite only (test/test_core.ml): the time table and its
# per-width orders, Core_assign against its reference loop and tie-break,
# Partition_evaluate, the exhaustive baseline and the pipeline. Runs
# from the build tree, like test-exact.
test-core: build
	cd _build/default/test && ./test_main.exe test core

# Annealer suite only (test/test_anneal.ml): the result invariants, the
# exhaustive lower bound, and the trajectory pins (time, accept counts,
# architecture and mid-walk token of d695, p93791 and a resumed random
# SOC) that hold the step loop to one walk. Runs from the build tree,
# like test-race.
test-anneal: build
	cd _build/default/test && ./test_main.exe test anneal

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

# Source-level determinism & domain-safety analysis: one Typedtree pass
# (DET-POLY, DET-ENTROPY, DOM-SHARED, DOM-ESCAPE, LOCK-RAISE, ALLOC-HOT
# and the effect-inference families EFFECT-WORKER, OUTCOME-DROP,
# ENGINE-CAPS, TAU-DISCIPLINE) plus the IFACE file-set check over lib/,
# bin/ and examples/, gated by analysis.baseline. The @lint-src
# alias builds @check first, since a source without a .cmt is an error.
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

# The two size figures every change reports: lines of the tracked
# lib/ + bin/ sources (.ml and .mli), and of the lib/ interface
# surface (.mli only).
loc:
	@printf 'lib+bin .ml+.mli lines: '; git ls-files 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bin/*.mli' | xargs cat | wc -l
	@printf 'lib .mli lines:         '; git ls-files 'lib/*.mli' | xargs cat | wc -l

clean:
	dune clean
