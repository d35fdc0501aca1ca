// Package conf enumerates machine configurations for the Hochbaum–Shmoys
// dynamic program. A machine configuration is a vector (s_1, ..., s_d) over
// the d distinct rounded long-job sizes, giving how many jobs of each size
// one machine runs, subject to the paper's equation (3):
//
//	sum_i s_i * size_i <= T
//
// and to availability s_i <= counts_i. The zero configuration (no
// assignment) is excluded, as in the paper's Parallel DP where C_{v} "does
// not include the zero vector".
package conf

import (
	"errors"
	"fmt"
	"sort"

	"repro/pcmax"
)

// Config is one machine configuration.
type Config struct {
	// Counts holds s_i for every distinct size class.
	Counts []int32
	// Weight is sum_i s_i*size_i, the machine completion time of the
	// configuration on rounded jobs.
	Weight pcmax.Time
	// Jobs is sum_i s_i.
	Jobs int32
	// Offset is the mixed-radix table-index displacement of the
	// configuration: sum_i s_i*stride_i. Because a configuration is only
	// applied to entries v with s <= v componentwise, subtracting Offset
	// from idx(v) yields idx(v-s) without any digit borrowing.
	Offset int64
}

// ErrTooMany reports that enumeration exceeded the configured limit.
var ErrTooMany = errors.New("conf: too many machine configurations")

// DefaultMaxConfigs bounds enumeration; the PTAS with eps=0.3 (k=4) needs at
// most a few thousand configurations, so hitting this limit indicates an
// extreme epsilon rather than a legitimate instance.
const DefaultMaxConfigs = 4 << 20

// Enumerate lists every non-zero configuration for the given distinct sizes,
// per-size availability, capacity T and table strides, in lexicographic
// order of the count vector. maxConfigs <= 0 selects DefaultMaxConfigs. It
// is EnumerateSparse's depth-first search with the prunes off.
func Enumerate(sizes []pcmax.Time, counts []int, T pcmax.Time, stride []int64, maxConfigs int) ([]Config, error) {
	out, _, err := enumerate(sizes, counts, T, stride, maxConfigs, false, SparseOptions{})
	return out, err
}

// enumerate is the one configuration search: a depth-first walk of the
// count vectors in lexicographic order that stops each class's count where
// the weight would pass T. With prune set it drops the configurations of
// three or more jobs that EnumerateSparse prunes under opts, and
// maxConfigs bounds the retained set, not the walk.
func enumerate(sizes []pcmax.Time, counts []int, T pcmax.Time, stride []int64, maxConfigs int, prune bool, opts SparseOptions) ([]Config, SparseStats, error) {
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
			if prune && jobs > 2 { // the singleton-and-pair pool is never pruned
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

// Fits reports whether configuration counts s can be applied to entry digits
// v, i.e. s <= v componentwise.
func Fits(s, v []int32) bool {
	for i := range s {
		if s[i] > v[i] {
			return false
		}
	}
	return true
}

// SortByJobs stably re-orders configs in place by ascending Jobs (ties keep
// enumeration order, which is lexicographic). Reconstruct depends on this
// order to stop its scan at the first configuration placing more jobs than
// remain. The production fill depends on it too: it relaxes each
// configuration c only where no remaining job can join c or replace one of
// its smaller jobs, which leaves the exact Opt table only when c comes
// before every c + e_j and every such c - e_j + e_a (j < a). Its scan set
// keeps the Jobs order, which puts c before c + e_j, and walks each
// equal-Jobs group backwards, lex-descending, which puts c before
// c - e_j + e_a.
func SortByJobs(configs []Config) {
	sort.SliceStable(configs, func(a, b int) bool { return configs[a].Jobs < configs[b].Jobs })
}
