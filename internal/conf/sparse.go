package conf

import (
	"math/bits"

	"repro/pcmax"
)

// This file implements the sparsified configuration enumerator behind the
// ptas-sparse registry algorithm. "Closing the Gap for Makespan Scheduling
// via Sparsification Techniques" (Jansen–Klein–Verschae) proves that optimal
// solutions of the configuration ILP need only configurations with small
// support — O(log 1/eps) distinct job sizes each — and that the remaining
// configurations are structurally redundant. EnumerateSparse applies two
// prunes in that spirit:
//
//   - support cap: configurations using more than MaxSupport distinct size
//     classes are dropped;
//   - dominance: a configuration is dominated when another feasible
//     configuration extends it — some class still has availability and
//     capacity left (weight + size_i <= T, s_i < counts_i). Dominated
//     configurations are "wasteful" machine assignments: the same machine
//     could carry strictly more load within T.
//
// Pruning a configuration can only raise OPT(v) values of the partition DP
// (fewer moves), never produce invalid schedules, so a sparse table's
// reconstruction is always a valid (if possibly conservative) packing. Two
// structural floors keep the sparse DP total and the driver's certification
// cheap:
//
//   - every configuration of at most two jobs survives (the singleton and
//     pair pool), so every non-zero entry retains at least one candidate and
//     OPT stays finite everywhere, and the production fill writes the pool's
//     share of the table in closed form and relaxes only the configurations
//     of three or more jobs (package dp);
//   - the full-vector entry keeps a certified escape hatch one level up: the
//     driver (core.Solve with Options.Sparsify) re-verifies the converged
//     target against the faithful enumeration, so over-pruning degrades to a
//     detected fallback, never to a silently weaker guarantee.
type SparseOptions struct {
	// MaxSupport caps the number of distinct size classes per retained
	// configuration of three or more jobs; <= 0 disables the support cap.
	MaxSupport int
}

// DefaultSparseOptions derives the Jansen–Klein–Verschae-style defaults for
// k = ceil(1/eps): support capped at ceil(log2 k) + 2 (at least 3).
func DefaultSparseOptions(k int) SparseOptions {
	if k < 1 {
		k = 1
	}
	sup := bits.Len(uint(k-1)) + 2 // ceil(log2 k) + 2
	if sup < 3 {
		sup = 3
	}
	return SparseOptions{MaxSupport: sup}
}

// SparseStats reports what EnumerateSparse did: how many feasible non-zero
// configurations the box held and where the pruned ones went. Enumerated ==
// Retained + PrunedSupport + PrunedDominated.
type SparseStats struct {
	// Enumerated counts every feasible non-zero configuration visited.
	Enumerated int
	// Retained counts configurations kept in the sparse set.
	Retained int
	// PrunedSupport counts configurations dropped by the support cap.
	PrunedSupport int
	// PrunedDominated counts configurations dropped as dominated.
	PrunedDominated int
}

// dominated reports whether the configuration held in cur (weight w, visited
// left-to-right over all d classes) can be extended by one more job of any
// class within capacity T and availability counts — i.e. whether a strictly
// larger feasible configuration exists. sizes, counts and cur are parallel.
//
// Hot path: dominance test runs once per enumerated configuration.
func dominated(cur []int32, sizes []pcmax.Time, counts []int, w, T pcmax.Time) bool {
	// Never taken: the parallel slices share length d. The guard lets the
	// compiler drop the bounds checks on cur[i] and counts[i].
	if len(cur) < len(sizes) || len(counts) < len(sizes) {
		return false
	}
	for i, s := range sizes {
		if int(cur[i]) < counts[i] && w+s <= T {
			return true
		}
	}
	return false
}

// support counts the distinct size classes a configuration uses.
//
// Hot path: support count runs once per enumerated configuration.
func support(cur []int32) int {
	n := 0
	for _, c := range cur {
		if c != 0 {
			n++
		}
	}
	return n
}

// EnumerateSparse lists the sparse subset of the non-zero configurations for
// the given distinct sizes, availability, capacity T and table strides, in
// lexicographic order of the count vector (the same order and Config layout
// as Enumerate, so SortByJobs and every DP fill path apply unchanged).
// maxConfigs <= 0 selects DefaultMaxConfigs and bounds the retained set, not
// the enumeration.
func EnumerateSparse(sizes []pcmax.Time, counts []int, T pcmax.Time, stride []int64, maxConfigs int, opts SparseOptions) ([]Config, SparseStats, error) {
	return enumerate(sizes, counts, T, stride, maxConfigs, true, opts)
}
