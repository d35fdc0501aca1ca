package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/pcmax"
)

// A run repeats its set-up at least minSetupReps times and until
// minSetupTime has passed (at most maxSetupReps times); setup_s is the
// median, so a slow repetition does not move it, and a set-up of a few
// milliseconds gets enough repetitions to repeat from run to run.
const (
	minSetupReps = 5
	maxSetupReps = 100
	minSetupTime = time.Second
)

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   int     `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	TailPct   float64 `json:"tail_percentile"`
	// Metrics holds the BENCHMARK.json metrics: every end-to-end metric when
	// untraced, every all-workload per-layer metric when traced.
	Metrics map[string]metricValue `json:"metrics"`
	// Extra holds the numbers BENCHMARK.json does not gate: failed_frac,
	// warmup_s, max_rss_mb, the instance count of a cold workload,
	// speedup_vs_1w on fill-par, the workload-specific per-layer metrics and
	// trace.replay_mismatches.
	Extra map[string]metricValue `json:"extra"`
	// Digest is an FNV-1a hash over the warm-up pass's per-instance
	// makespans, so a later change can show its schedules are unchanged.
	Digest   string   `json:"makespan_digest"`
	Failures []string `json:"failures,omitempty"`
}

// meter records per-operation latencies and the allocation counters over
// the measurement windows. Allocation windows enclose only the operations;
// checks run between windows.
type meter struct {
	lat            []float64 // nanoseconds per op
	mallocs, bytes uint64
	ms             runtime.MemStats
	m0, b0         uint64
}

// reserve makes room for n more latencies, so appending inside a window
// never allocates.
func (m *meter) reserve(n int) {
	if cap(m.lat)-len(m.lat) < n {
		grown := make([]float64, len(m.lat), 2*cap(m.lat)+n)
		copy(grown, m.lat)
		m.lat = grown
	}
}

func (m *meter) open() {
	runtime.ReadMemStats(&m.ms)
	m.m0, m.b0 = m.ms.Mallocs, m.ms.TotalAlloc
}

func (m *meter) close() {
	runtime.ReadMemStats(&m.ms)
	m.mallocs += m.ms.Mallocs - m.m0
	m.bytes += m.ms.TotalAlloc - m.b0
}

// record appends one op's latency.
func (m *meter) record(d time.Duration) { m.lat = append(m.lat, float64(d)) }

// checker counts failed operations and keeps the first few reasons.
type checker struct {
	failed int
	msgs   []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// checkCold applies the per-op checks of a cold solve: no error, a valid
// schedule, the instance's reference makespan (when known) and never worse
// than plain LPT. It returns the makespan (0 on error).
func (c *checker) checkCold(label string, in *pcmax.Instance, sched *pcmax.Schedule, err error, ref, lptMS pcmax.Time) pcmax.Time {
	if err != nil {
		c.fail("%s: %v", label, err)
		return 0
	}
	if verr := sched.Validate(in); verr != nil {
		c.fail("%s: invalid schedule: %v", label, verr)
		return 0
	}
	ms := sched.Makespan(in)
	switch {
	case ref != 0 && ms != ref:
		c.fail("%s: makespan %d differs from reference %d", label, ms, ref)
	case ms > lptMS:
		c.fail("%s: makespan %d worse than LPT %d", label, ms, lptMS)
	}
	return ms
}

// checkSessionStep fails a session step whose warm makespan exceeds (1+eps)
// times a cold solve of the same instance (coldMS >= OPT, so the warm result
// would break its (1+eps)·OPT guarantee).
func (c *checker) checkSessionStep(label string, warmMS, coldMS pcmax.Time, eps float64) {
	if float64(warmMS) > (1+eps)*float64(coldMS)+1e-9 {
		c.fail("%s: warm makespan %d exceeds (1+%g) x cold %d", label, warmMS, eps, coldMS)
	}
}

// digest accumulates the makespan digest.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(ms pcmax.Time) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(ms))
	d.h.Write(b[:])
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// maxRSSMiB returns this process's peak resident set size. It is reported
// ungated: where the collector happens to run decides much of the peak, so
// on large-n it moves by a third from run to run.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// e2eMetrics turns a finished timed phase into the end-to-end metrics.
func e2eMetrics(m *meter, tailPct float64, ratioSum float64, ratioN int, setups []float64, liveMiB float64) map[string]metricValue {
	ops := len(m.lat)
	var sum float64
	for _, v := range m.lat {
		sum += v
	}
	return map[string]metricValue{
		"latency_p50_ms":     {Value: median(m.lat) / 1e6, Unit: "ms", Samples: ops},
		"latency_tail_ms":    {Value: percentile(m.lat, tailPct) / 1e6, Unit: "ms", Samples: ops},
		"solves_per_s":       {Value: float64(ops) / (sum / 1e9), Unit: "1/s", Samples: ops},
		"allocs_per_op":      {Value: float64(m.mallocs) / float64(ops), Unit: "count", Samples: ops},
		"alloc_bytes_per_op": {Value: float64(m.bytes) / float64(ops), Unit: "B", Samples: ops},
		"live_heap_mb":       {Value: liveMiB, Unit: "MiB", Samples: 1},
		"makespan_over_lb":   {Value: ratioSum / float64(ratioN), Unit: "ratio", Samples: ratioN},
		"setup_s":            {Value: median(setups), Unit: "s", Samples: len(setups)},
	}
}

// liveHeapMiB returns the heap still reachable after a full collection.
// Taken after the warm-up, before the timed phase allocates its buffers, it
// is the memory the workload's instances and the solver's retained state
// (session caches) hold. Unlike the peak resident set, which moves with
// where collections happen to land, it repeats from run to run. It is the
// least of three readings: a closed par.BarrierPool's workers exit after
// Close returns, and one still running keeps the pool's last round, with its
// DP table, reachable (one fill-par run read 2.0 MiB instead of 0.33).
func liveHeapMiB() float64 {
	var ms runtime.MemStats
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		least = math.Min(least, float64(ms.HeapAlloc))
	}
	return least / (1 << 20)
}

// timeSetup runs build repeatedly (see minSetupReps) and returns the
// durations in seconds; the state of the last repetition is the one the
// run uses.
func timeSetup(build func() error) ([]float64, error) {
	var out []float64
	var total time.Duration
	for len(out) < minSetupReps || (total < minSetupTime && len(out) < maxSetupReps) {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		total += d
		out = append(out, d.Seconds())
	}
	return out, nil
}

// mix derives independent 64-bit seeds (splitmix64 finalizer over the run
// seed and the given coordinates).
func mix(seed uint64, coords ...uint64) uint64 {
	h := seed
	for _, c := range coords {
		h ^= c + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
