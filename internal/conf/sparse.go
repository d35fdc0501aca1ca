package conf

import (
	"fmt"
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
//   - every configuration with Jobs <= KeepJobs survives (the singleton and
//     pair pool), so every non-zero entry retains at least one candidate and
//     OPT stays finite everywhere;
//   - the full-vector entry keeps a certified escape hatch one level up: the
//     driver (core.Solve with Options.Sparsify) re-verifies the converged
//     target against the faithful enumeration, so over-pruning degrades to a
//     detected fallback, never to a silently weaker guarantee.
type SparseOptions struct {
	// MaxSupport caps the number of distinct size classes per retained
	// configuration; <= 0 disables the support cap. Configurations in the
	// KeepJobs pool are exempt (their support is at most KeepJobs anyway).
	MaxSupport int
	// KeepJobs is the unconditional retention floor: every configuration
	// placing at most this many jobs is kept regardless of support or
	// dominance. Values < 1 are treated as 1 (singletons are always kept;
	// the DP requires every non-zero entry to admit a candidate); Keep
	// returns the floor in effect. A set that keeps every configuration of
	// at most two jobs (Keep() >= 2, as DefaultSparseOptions does) lets the
	// production fill write that pool's share of the table in closed form
	// and relax only the configurations of three or more jobs (package dp).
	KeepJobs int32
}

// Keep returns the retention floor EnumerateSparse applies: KeepJobs, or 1
// when KeepJobs is below 1.
func (o SparseOptions) Keep() int32 { return max(o.KeepJobs, 1) }

// DefaultSparseOptions derives the Jansen–Klein–Verschae-style defaults for
// k = ceil(1/eps): support capped at ceil(log2 k) + 2 (at least 3), with the
// singleton-and-pair pool retained.
func DefaultSparseOptions(k int) SparseOptions {
	if k < 1 {
		k = 1
	}
	sup := bits.Len(uint(k-1)) + 2 // ceil(log2 k) + 2
	if sup < 3 {
		sup = 3
	}
	return SparseOptions{MaxSupport: sup, KeepJobs: 2}
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

// Reduction returns Enumerated/Retained, the config-count shrink factor
// (1 when nothing was pruned or the set is empty).
func (s SparseStats) Reduction() float64 {
	if s.Retained == 0 || s.Enumerated == 0 {
		return 1
	}
	return float64(s.Enumerated) / float64(s.Retained)
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
// as Enumerate, so SortByJobs and every DP fill path apply unchanged). maxConfigs <= 0 selects DefaultMaxConfigs and bounds the
// retained set, not the enumeration.
func EnumerateSparse(sizes []pcmax.Time, counts []int, T pcmax.Time, stride []int64, maxConfigs int, opts SparseOptions) ([]Config, SparseStats, error) {
	var stats SparseStats
	if len(sizes) != len(counts) || len(sizes) != len(stride) {
		return nil, stats, fmt.Errorf("conf: mismatched dimensions (sizes=%d counts=%d stride=%d)",
			len(sizes), len(counts), len(stride))
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, stats, fmt.Errorf("conf: size class %d has non-positive size %d", i, s)
		}
		if s > T {
			return nil, stats, fmt.Errorf("conf: size class %d (%d) exceeds capacity T=%d", i, s, T)
		}
		if counts[i] < 0 {
			return nil, stats, fmt.Errorf("conf: size class %d has negative count %d", i, counts[i])
		}
	}
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigs
	}
	keep := opts.Keep()
	d := len(sizes)
	var out []Config
	cur := make([]int32, d)
	var rec func(dim int, weight pcmax.Time, jobs int32, offset int64) error
	rec = func(dim int, weight pcmax.Time, jobs int32, offset int64) error {
		if dim == d {
			if jobs == 0 {
				return nil // exclude the zero configuration
			}
			stats.Enumerated++
			if jobs > keep {
				if opts.MaxSupport > 0 && support(cur) > opts.MaxSupport {
					stats.PrunedSupport++
					return nil
				}
				if dominated(cur, sizes, counts, weight, T) {
					stats.PrunedDominated++
					return nil
				}
			}
			if len(out) >= maxConfigs {
				return fmt.Errorf("%w (limit %d)", ErrTooMany, maxConfigs)
			}
			stats.Retained++
			out = append(out, Config{
				Counts: append([]int32(nil), cur...),
				Weight: weight,
				Jobs:   jobs,
				Offset: offset,
			})
			return nil
		}
		for s := 0; s <= counts[dim]; s++ {
			w := weight + pcmax.Time(s)*sizes[dim]
			if w > T {
				break // sizes are positive; larger s only grows the weight
			}
			cur[dim] = int32(s)
			if err := rec(dim+1, w, jobs+int32(s), offset+int64(s)*stride[dim]); err != nil {
				return err
			}
		}
		cur[dim] = 0
		return nil
	}
	if err := rec(0, 0, 0, 0); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
