package dp

import (
	"encoding/binary"
	"sync"

	"repro/internal/conf"
	"repro/pcmax"
)

// Cache memoizes the expensive table-independent artifact of a DP build,
// the configuration set, across bisection iterations. Sets are keyed by the
// *canonical profile* of the enumeration inputs (see below): the probes of
// one bisection repeat canonical profiles across their targets,
// warm-started delta solves revisit the previous solution's neighborhood,
// and a production caller solving many similar instances repeats keys
// freely. (A solve attempts its converged target after the bisection only
// when no probe ran at it, so no solve looks one target up twice.)
//
// # Profile-canonical configuration keys
//
// A configuration (s_1, ..., s_d) is feasible iff sum_i s_i*size_i <= T.
// With g = gcd(size_1, ..., size_d) every weight sum is a multiple of g, so
// the inequality is equivalent to sum_i s_i*(size_i/g) <= floor(T/g): the
// whole enumeration — faithful or sparse, dominance checks included, since
// every comparison it makes is of the form weight + size_i <= T — depends
// only on the reduced sizes and the reduced capacity. Config sets are
// therefore cached under (sizes/g, counts, floor(T/g), limits, mode) and
// built from those canonical values, which makes the cached artifact a pure
// function of the key regardless of which probe built it. Two probes at
// different targets whose rounded job profiles coincide after reduction —
// the common case for the warm re-solves of an incremental session, where
// the rounding unit shifts with T but the class structure does not — share
// one enumeration instead of repeating it. Note the canonical build leaves
// conf.Config.Weight expressed in units of g; the DP fills and
// reconstruction consume only Counts, Jobs and Offset, which are
// scale-invariant.
//
// Keys are compact binary strings assembled in a buffer reused across
// lookups (guarded by mu), so the hit path performs no allocation — lookups
// happen once per bisection probe on the solve hot path.
//
// Cached sets are immutable and shared by reference; a Cache is safe for
// concurrent use (concurrent solves may share one cache through
// core.Options.Cache).
// Eviction is generational: when the map outgrows its budget it is dropped
// wholesale, which keeps the bookkeeping trivial and bounds retained memory
// without LRU machinery.
type Cache struct {
	mu      sync.Mutex
	configs map[string]configsEntry
	stats   CacheStats
	// keyBuf is the shared key-assembly buffer; it is only touched while mu
	// is held and must be copied (string conversion) before the lock drops.
	keyBuf []byte
}

// configsEntry pairs a Jobs-sorted configuration list with its flat scan
// view, the index layout both are expressed in and, for sparse
// enumerations, the sparsification counters.
type configsEntry struct {
	configs []conf.Config
	set     *scanSet
	lay     layout
	sstats  conf.SparseStats
}

// maxCachedConfigSets bounds the configuration map (a bisection probes
// O(log range) distinct targets; 64 covers several solves between resets).
const maxCachedConfigSets = 64

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{configs: make(map[string]configsEntry)}
}

// CacheStats counts cache traffic; retrieve a snapshot with Stats.
type CacheStats struct {
	// ConfigHits and ConfigMisses count configuration-set lookups.
	ConfigHits, ConfigMisses int64
	// LevelHits and LevelMisses are always zero. They counted the lookups of
	// a level index that no fill builds any more, and remain because callers
	// outside this module still read them.
	LevelHits, LevelMisses int64
}

// Sub returns the per-counter difference s - prev. Callers sharing one cache
// across solves snapshot the stats before a solve and subtract afterwards to
// report that solve's own traffic rather than the cache's lifetime totals.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{
		ConfigHits:   s.ConfigHits - prev.ConfigHits,
		ConfigMisses: s.ConfigMisses - prev.ConfigMisses,
	}
}

// Stats returns a snapshot of the cache counters. A nil cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// gcdTime returns gcd(a, b) for a, b >= 0.
func gcdTime(a, b pcmax.Time) pcmax.Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// sizesGCD returns the greatest common divisor of the (positive) sizes, or 1
// for an empty profile.
func sizesGCD(sizes []pcmax.Time) pcmax.Time {
	var g pcmax.Time
	for _, s := range sizes {
		g = gcdTime(g, s)
		if g == 1 {
			return 1
		}
	}
	if g == 0 {
		return 1
	}
	return g
}

// appendConfigKey assembles the canonical binary configuration-set key into
// b: enumeration mode and (when sparse) the support cap as the enumerator
// applies it (below 0 as 0) — a mixed-mode caller, e.g. the ptas-sparse
// driver re-verifying its converged target with a faithful table at the
// same profile, must never be handed the other mode's configuration set —
// followed by the limit and the gcd-reduced capacity and sizes. The layout
// (strides, class order and phase plan) derives from counts and the
// enumerated set, so it carries no extra information. Every component is
// length-prefixed or fixed-order varint, so the encoding is unambiguous.
func appendConfigKey(b []byte, sizes []pcmax.Time, g pcmax.Time, counts []int, cT pcmax.Time, maxConfigs int, mode EnumMode, sopts conf.SparseOptions) []byte {
	b = append(b, byte(mode))
	if mode == EnumSparse {
		b = binary.AppendUvarint(b, uint64(max(sopts.MaxSupport, 0)))
	}
	b = binary.AppendUvarint(b, uint64(max(maxConfigs, 0)))
	b = binary.AppendUvarint(b, uint64(cT))
	b = binary.AppendUvarint(b, uint64(len(sizes)))
	for i := range sizes {
		b = binary.AppendUvarint(b, uint64(sizes[i]/g))
		b = binary.AppendUvarint(b, uint64(counts[i]))
	}
	return b
}

// configSet returns the Jobs-sorted configuration list, its flat view, their
// layout and the sparsification counters for the given enumeration inputs
// of a table with sigma entries, consulting the cache when non-nil. Cached
// sets are built from the gcd-canonical profile (see the Cache doc comment),
// so their Config.Weight values are in canonical units; everything the fills
// and reconstruction consume is scale-invariant. Errors (e.g.
// conf.ErrTooMany) are never cached.
func (c *Cache) configSet(sizes []pcmax.Time, counts []int, T pcmax.Time, sigma int64, maxConfigs int, mode EnumMode, sopts conf.SparseOptions) (configsEntry, error) {
	if c == nil {
		return buildConfigSet(sizes, counts, T, sigma, maxConfigs, mode, sopts)
	}
	g := sizesGCD(sizes)
	cT := T / g
	c.mu.Lock()
	c.keyBuf = appendConfigKey(c.keyBuf[:0], sizes, g, counts, cT, maxConfigs, mode, sopts)
	if e, ok := c.configs[string(c.keyBuf)]; ok {
		c.stats.ConfigHits++
		c.mu.Unlock()
		return e, nil
	}
	c.stats.ConfigMisses++
	key := string(c.keyBuf) // materialize: keyBuf is shared and mu drops next
	c.mu.Unlock()

	csizes := make([]pcmax.Time, len(sizes))
	for i, s := range sizes {
		csizes[i] = s / g
	}
	e, err := buildConfigSet(csizes, counts, cT, sigma, maxConfigs, mode, sopts)
	if err != nil {
		return e, err
	}
	c.mu.Lock()
	if len(c.configs) >= maxCachedConfigSets {
		c.configs = make(map[string]configsEntry)
	}
	c.configs[key] = e
	c.mu.Unlock()
	return e, nil
}

// buildConfigSet enumerates, Jobs-sorts and flattens a configuration set
// for a table of sigma entries, pins the rows of a faithful set, and gives
// the set a slab-phase plan when its fill work, the sum of its pinned boxes
// before the phase rule, reaches planMinWork. The rows' final pins need the
// plan, so newScanSet marks them after it. A sparse set fills its
// singleton-and-pair pool, a prefix of the Jobs order, in closed form
// (pairs.go): its rows, its fill work and its plan are those of the
// configurations of three or more jobs.
func buildConfigSet(sizes []pcmax.Time, counts []int, T pcmax.Time, sigma int64, maxConfigs int, mode EnumMode, sopts conf.SparseOptions) (configsEntry, error) {
	e := configsEntry{lay: newLayout(counts)}
	pin := pins{sizes: sizes, T: T}
	sparse := mode == EnumSparse
	var err error
	if sparse {
		e.configs, e.sstats, err = conf.EnumerateSparse(sizes, counts, T, e.lay.stride, maxConfigs, sopts)
		pin = pins{}
	} else {
		e.configs, err = conf.Enumerate(sizes, counts, T, e.lay.stride, maxConfigs)
	}
	if err != nil {
		return configsEntry{sstats: e.sstats}, err
	}
	conf.SortByJobs(e.configs)
	rows := e.configs
	for sparse && len(rows) > 0 && rows[0].Jobs <= 2 {
		rows = rows[1:]
	}
	// The pinned boxes sum to at most sigma·|C|, so a smaller table skips
	// the sum.
	var work int64
	if sigma*int64(len(rows)) >= planMinWork {
		for ci := range rows {
			work += pin.box(&rows[ci], counts)
		}
	}
	var phase []int64
	if work >= planMinWork {
		phase = e.lay.plan(rows, counts, pin)
		for ci := range e.configs {
			e.configs[ci].Offset = e.lay.offset(e.configs[ci].Counts)
		}
	}
	e.set = newScanSet(rows, sizes, T, sparse, phase, &e.lay, pin)
	return e, nil
}
