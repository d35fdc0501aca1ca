#!/bin/sh
# Repo-wide verification: formatting, build, vet (of this module and of the
# benchmark's own module), the schedlint invariant gate, the full test suite
# with shuffled test order, then the race detector over the packages with
# real concurrency (worker pool, parallel DP fills, exact solver, core
# driver, solver facade). Every `go test` carries a -timeout guard so a hung test
# fails the pipeline instead of wedging it. This is the gate every PR runs
# before merging; ROADMAP.md points here.
set -eux

cd "$(dirname "$0")/.."

# gofmt prints nothing when the tree is formatted; any output is a failure.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
# vet's copylocks check is the gate against copying a lock-bearing value
# (par.Pool, dp.Cache, solver.Session) anywhere in the module.
go vet ./...
# The benchmark (cmd/schedperf) is its own module, so ./... never reaches it.
go -C cmd/schedperf vet ./...

# schedlint enforces the repo's determinism and API invariants with its five
# syntactic analyzers in one run (ALGORITHM.md section 9), plus the
# lintdirective audit of malformed, unknown and stale //lint:ignore
# comments. Findings print grouped by check; exit 1 on any finding is a hard
# failure. Data races are the race detector's, in the -race passes at the
# end; goroutine release, lock order and the fills' cancellation poll
# strides are tests in par, dp and exact (section 11), and the hot kernels'
# allocations and Validate's overflow caps are tests too (section 14).
go run ./cmd/schedlint ./...

go test -shuffle=on -timeout 10m ./...

# The benchmark (cmd/schedperf) is its own module, wired to this tree by a
# replace directive, so the root `go test ./...` never builds it. Its smoke
# test runs every workload briefly; a library change that breaks the
# benchmark's build or its output checks fails here.
go -C cmd/schedperf test -timeout 5m ./...

# Fuzz smoke over both instance parsers: five seconds of random streams each
# against the accept->caps->round-trip invariants of pcmax.FuzzReadText and
# pcmax.FuzzReadJSON (the caps oracle recomputes the overflow caps without
# Validate, and the corpora include near-MaxInt64 values). Catches
# format-grammar regressions the fixed test corpus misses.
go test -timeout 5m -run '^$' -fuzz 'FuzzReadText' -fuzztime 5s ./pcmax
go test -timeout 5m -run '^$' -fuzz 'FuzzReadJSON' -fuzztime 5s ./pcmax

# Fuzz smoke over the LPT order every solve shares: five seconds of random
# job times, full-width and narrow, against the comparison sort
# pcmax.SortedIndex's radix sort must reproduce (pcmax.FuzzSortedIndex).
go test -timeout 5m -run '^$' -fuzz 'FuzzSortedIndex' -fuzztime 5s ./pcmax

# Fuzz smoke over the greedy choice every LPT pass makes (bounds, short-job
# pack, repair): five seconds of random machine counts, tie-heavy and wide
# times and partial starting schedules, each placed by AssignGreedy's loser
# tree and by the paper's first-strict-minimum scan, which must agree job for
# job (internal/listsched.FuzzAssignGreedy).
go test -timeout 5m -run '^$' -fuzz 'FuzzAssignGreedy' -fuzztime 5s ./internal/listsched

# Fuzz smoke over the bounds that lean on other code: five seconds of small
# instances (m <= 4, n <= 10) on which lb.FromLPT of the LPT schedule and
# lb.FromPrevious across a random removal must stay at or below
# exact.BruteForce's optimum, and LPT's makespan at or above it
# (internal/lb.FuzzLowerBounds).
go test -timeout 5m -run '^$' -fuzz 'FuzzLowerBounds' -fuzztime 5s ./internal/lb

# Differential fuzz smoke over the fill switch: five seconds of random small
# instances (m <= 4, n <= 10), each solved with the production fill and with
# the paper's Algorithms 2 and 3 (internal/core.FuzzSolve), which must agree
# on the schedule and stats and meet exact.BruteForce's optimum.
go test -timeout 5m -run '^$' -fuzz 'FuzzSolve' -fuzztime 5s ./internal/core

# Differential fuzz smoke over the production fill itself: five seconds of
# random (sizes, counts, T) tables with a slab-phase plan forced on each,
# one faithful and one sparse (support cap from the input), filled on the
# caller and on a 2-worker pool, which must equal the unpruned oracle entry
# for entry and relax exactly the configurations' pinned boxes, a sparse
# table only those of its configurations of three or more jobs
# (internal/dp.FuzzFill).
go test -timeout 5m -run '^$' -fuzz 'FuzzFill' -fuzztime 5s ./internal/dp

# The race detector is the repo's race gate (ALGORITHM.md sections 11 and 16
# record the mutation audits behind it): the pool's panic and cursor paths,
# the fills' shared stop flag and per-worker slots (slab-parallel and
# level-parallel), the exact solver's pool rounds and the shared caches all
# have tests here that race when their synchronization is removed.
# internal/lint starts no goroutine, so it has no race pass.
# internal/trsched joins it: the variant solver shares the configuration
# enumeration with the concurrent fill paths, and ./solver's race run also
# covers the variant dispatch layer in front of them.
go test -race -timeout 15m ./internal/par ./internal/dp ./internal/exact ./internal/core ./internal/trsched ./solver

# Dedicated pass over the incremental-solving layer: the session
# differential harness (warm-vs-cold certificates, adversarial mutation
# streams, concurrent mutators and readers on one Session) must hold under
# the race detector.
go test -race -timeout 10m -run 'Session' ./solver
