// Package pcmax defines the problem model for P||Cmax, the problem of
// scheduling n jobs with integer processing times on m parallel identical
// machines to minimize the makespan (the maximum machine completion time).
//
// The package holds only data types and pure helpers: instances, schedules,
// loads, makespans and validation. Algorithms live in package solver and its
// internal implementations.
package pcmax

import (
	"errors"
	"fmt"
)

// Time is the unit of processing time. The model follows the paper and
// requires all processing times to be positive integers.
type Time = int64

// Instance is a scheduling problem instance: M identical machines and one
// processing time per job. Job j is identified by its index in Times. The
// zero value of the three optional sections — release times, setup times and
// availability windows — is classic P||Cmax; see Variant for the classifier
// over them and variant.go for their makespan semantics.
type Instance struct {
	// M is the number of identical machines, m >= 1.
	M int
	// Times holds the processing time of each job, all > 0.
	Times []Time

	// Release optionally holds one release time per job (len 0 or len(Times),
	// all >= 0): job j may not start before Release[j].
	Release []Time
	// Setup optionally holds one machine-dependent setup time per machine
	// (len 0 or M, all >= 0): machine i spends Setup[i] immediately before
	// every job it runs.
	Setup []Time
	// Windows optionally holds per-machine availability windows (len 0 or M).
	// A machine with a non-empty list may only run work inside its windows;
	// a job together with its setup must fit entirely within one window. An
	// empty inner list leaves that machine unrestricted.
	Windows [][]Window
}

// Validation caps. Instances arrive from untrusted files, and everything
// downstream — bounds, bisection probes, DP table sizing — sums and scales
// processing times as int64. The caps keep that arithmetic overflow-free:
// with every value at most MaxTimeValue and the running total at most
// MaxTotalTime, any sum the solvers form stays far inside the int64 range.
// TestValidateCaps pins each cap at its boundary, and the reader fuzzers
// check every accepted instance against the caps without calling Validate.
const (
	// MaxTimeValue caps every accepted time-like value (processing, release,
	// setup and window bounds).
	MaxTimeValue Time = 1 << 50
	// MaxTotalTime caps the sum of all processing times of an instance.
	MaxTotalTime Time = 1 << 60
	// MaxJobs caps the number of jobs an instance may carry.
	MaxJobs = 1 << 30
	// MaxMachines caps the machine count. Readers and solvers size
	// per-machine state by it (window lists, setup times, machine loads), so
	// an uncapped m from an untrusted file would size those allocations.
	MaxMachines = 1 << 20
)

// Common validation errors.
var (
	ErrNoMachines      = errors.New("pcmax: instance needs at least one machine")
	ErrNonPositiveTime = errors.New("pcmax: job processing times must be positive")
	ErrNilInstance     = errors.New("pcmax: nil instance")
	ErrTimeTooLarge    = errors.New("pcmax: time value exceeds MaxTimeValue")
	ErrTotalTooLarge   = errors.New("pcmax: total processing time exceeds MaxTotalTime")
	ErrTooManyJobs     = errors.New("pcmax: instance exceeds MaxJobs jobs")
	ErrTooManyMachines = errors.New("pcmax: instance exceeds MaxMachines machines")
)

// NewInstance builds a validated instance. The job times are copied.
func NewInstance(m int, times []Time) (*Instance, error) {
	in := &Instance{M: m, Times: append([]Time(nil), times...)}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Times) }

// Validate checks that the instance is well formed and within the
// documented caps: between 1 and MaxMachines machines, every time positive
// and at most MaxTimeValue, at most MaxJobs jobs, and a total of at most
// MaxTotalTime. The per-iteration
// cap checks dominate the running sum, so the accumulation is overflow-free
// by construction (MaxTotalTime + MaxTimeValue is far below MaxInt64).
func (in *Instance) Validate() error {
	if in == nil {
		return ErrNilInstance
	}
	if in.M < 1 {
		return fmt.Errorf("%w (m=%d)", ErrNoMachines, in.M)
	}
	if in.M > MaxMachines {
		return fmt.Errorf("%w (m=%d)", ErrTooManyMachines, in.M)
	}
	if len(in.Times) > MaxJobs {
		return fmt.Errorf("%w (n=%d)", ErrTooManyJobs, len(in.Times))
	}
	var sum Time
	for j, t := range in.Times {
		if t <= 0 {
			return fmt.Errorf("%w (job %d has t=%d)", ErrNonPositiveTime, j, t)
		}
		if t > MaxTimeValue {
			return fmt.Errorf("%w (job %d has t=%d)", ErrTimeTooLarge, j, t)
		}
		sum += t
		if sum > MaxTotalTime {
			return fmt.Errorf("%w (first %d jobs already sum past %d)", ErrTotalTooLarge, j+1, Time(MaxTotalTime))
		}
	}
	return in.validateVariant()
}

// TotalTime returns the sum of all processing times.
func (in *Instance) TotalTime() Time {
	var sum Time
	for _, t := range in.Times {
		sum += t
	}
	return sum
}

// MaxTime returns the largest processing time, or 0 for an empty instance.
func (in *Instance) MaxTime() Time {
	var max Time
	for _, t := range in.Times {
		if t > max {
			max = t
		}
	}
	return max
}

// LowerBound returns the trivial lower bound on the optimal makespan used by
// the paper's equation (1) with the floor replaced by a ceiling (the ceiling
// is also a valid — and tighter — bound because machine loads are integers).
func (in *Instance) LowerBound() Time {
	if in.M < 1 {
		return 0
	}
	sum, mx := in.sumMax()
	lb := (sum + Time(in.M) - 1) / Time(in.M)
	if mx > lb {
		lb = mx
	}
	return lb
}

// sumMax returns TotalTime and MaxTime from one pass over the jobs.
func (in *Instance) sumMax() (sum, max Time) {
	for _, t := range in.Times {
		sum += t
		if t > max {
			max = t
		}
	}
	return sum, max
}

// UpperBound returns the paper's equation (2) upper bound on the optimal
// makespan: ceil(sum/m) + max t. Any list schedule fits within it.
func (in *Instance) UpperBound() Time {
	if in.M < 1 {
		return 0
	}
	sum, mx := in.sumMax()
	return (sum+Time(in.M)-1)/Time(in.M) + mx
}

// Clone returns a deep copy of the instance, including the optional variant
// sections.
func (in *Instance) Clone() *Instance {
	out := &Instance{M: in.M, Times: append([]Time(nil), in.Times...)}
	if in.Release != nil {
		out.Release = append([]Time(nil), in.Release...)
	}
	if in.Setup != nil {
		out.Setup = append([]Time(nil), in.Setup...)
	}
	if in.Windows != nil {
		out.Windows = make([][]Window, len(in.Windows))
		for i, ws := range in.Windows {
			if ws != nil {
				out.Windows[i] = append([]Window(nil), ws...)
			}
		}
	}
	return out
}

// SortedIndex returns job indices ordered by non-increasing processing time,
// breaking ties by job index for determinism: the LPT order. The PTAS driver
// computes it once per solve and shares it between the LPT bounds, every
// bisection probe's long/short split and the short-job pack, so it is a
// stable LSD radix sort on the key maxT - t rather than a comparison sort:
// one counting pass per byte of the largest key (a byte every key shares is
// skipped), O(n) extra words and no comparisons. All-equal times and n <= 1
// return the identity. The instance is not modified.
func (in *Instance) SortedIndex() []int {
	n := len(in.Times)
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	if n < 2 {
		return idx
	}
	maxT, minT := in.Times[0], in.Times[0]
	for _, t := range in.Times[1:] {
		if t > maxT {
			maxT = t
		}
		if t < minT {
			minT = t
		}
	}
	// Unsigned differences are exact for any pair of int64 values, so the
	// keys need no validated instance.
	span := uint64(maxT) - uint64(minT)
	if span == 0 {
		return idx
	}
	keys := make([]uint64, n)
	for j, t := range in.Times {
		keys[j] = uint64(maxT) - uint64(t)
	}
	tmpKeys := make([]uint64, n)
	tmpIdx := make([]int, n)
	var count [256]int
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		clear(count[:])
		for _, key := range keys {
			count[byte(key>>shift)]++
		}
		if count[byte(keys[0]>>shift)] == n {
			continue
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for i, key := range keys {
			d := byte(key >> shift)
			p := count[d]
			count[d]++
			tmpKeys[p] = key
			tmpIdx[p] = idx[i]
		}
		keys, tmpKeys = tmpKeys, keys
		idx, tmpIdx = tmpIdx, idx
	}
	return idx
}

// Schedule assigns every job of an instance to a machine.
// Assignment[j] is the machine index (0-based) that runs job j.
//
// Order optionally fixes the per-machine processing sequence: when set it
// must be a permutation of the job indices, and each machine runs its jobs
// in the order they appear in it. When nil, machines run their jobs in the
// canonical order (non-decreasing release time, ties by job index). Plain
// P||Cmax makespans are order-independent, so plain solvers leave Order nil;
// window-aware solvers set it to pin the packing they constructed.
type Schedule struct {
	M          int
	Assignment []int
	Order      []int
}

// NewSchedule returns an empty schedule for m machines and n jobs with every
// assignment set to -1 (unassigned).
func NewSchedule(m, n int) *Schedule {
	s := &Schedule{M: m, Assignment: make([]int, n)}
	for j := range s.Assignment {
		s.Assignment[j] = -1
	}
	return s
}

// Schedule validation errors.
var (
	ErrBadAssignment = errors.New("pcmax: schedule assigns a job to an invalid machine")
	ErrWrongJobCount = errors.New("pcmax: schedule has a different number of jobs than the instance")
	ErrNilSchedule   = errors.New("pcmax: nil schedule")
)

// Validate checks that the schedule is a complete, legal assignment for in.
func (s *Schedule) Validate(in *Instance) error {
	if s == nil {
		return ErrNilSchedule
	}
	if err := in.Validate(); err != nil {
		return err
	}
	if len(s.Assignment) != in.N() {
		return fmt.Errorf("%w (schedule %d, instance %d)", ErrWrongJobCount, len(s.Assignment), in.N())
	}
	if s.M != in.M {
		return fmt.Errorf("%w (schedule m=%d, instance m=%d)", ErrBadAssignment, s.M, in.M)
	}
	for j, mi := range s.Assignment {
		if mi < 0 || mi >= s.M {
			return fmt.Errorf("%w (job %d -> machine %d of %d)", ErrBadAssignment, j, mi, s.M)
		}
	}
	if len(s.Order) > 0 {
		if len(s.Order) != len(s.Assignment) {
			return fmt.Errorf("%w (order has %d entries for %d jobs)", ErrBadOrder, len(s.Order), len(s.Assignment))
		}
		seen := make([]bool, len(s.Assignment))
		for _, j := range s.Order {
			if j < 0 || j >= len(seen) || seen[j] {
				return fmt.Errorf("%w (entry %d)", ErrBadOrder, j)
			}
			seen[j] = true
		}
	}
	return nil
}

// Loads returns the total processing time assigned to each machine.
// Unassigned jobs (machine -1) are ignored. Setups and idle gaps are not
// included; see Completions for the variant-aware completion times.
func (s *Schedule) Loads(in *Instance) []Time {
	loads := make([]Time, s.M)
	for j, mi := range s.Assignment {
		if mi >= 0 && mi < s.M && j < len(in.Times) {
			loads[mi] += in.Times[j]
		}
	}
	return loads
}

// Makespan returns the maximum machine completion time of the schedule on
// in. On plain instances that is the maximum machine load; on variant
// instances completions follow the release/setup/window semantics of
// Completions, and an infeasible schedule (a job fits no window) reports the
// Infeasible sentinel.
func (s *Schedule) Makespan(in *Instance) Time {
	if in.Variant() != Plain {
		return s.variantMakespan(in)
	}
	var ms Time
	for _, l := range s.Loads(in) {
		if l > ms {
			ms = l
		}
	}
	return ms
}

// MachineJobs returns, per machine, the list of job indices assigned to it,
// each list in increasing job order.
func (s *Schedule) MachineJobs() [][]int {
	out := make([][]int, s.M)
	for j, mi := range s.Assignment {
		if mi >= 0 && mi < s.M {
			out[mi] = append(out[mi], j)
		}
	}
	return out
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{M: s.M, Assignment: append([]int(nil), s.Assignment...)}
	if s.Order != nil {
		out.Order = append([]int(nil), s.Order...)
	}
	return out
}

// Ratio returns the actual approximation ratio of the schedule against a
// reference optimal makespan, as a float64. It returns 0 if opt <= 0.
func (s *Schedule) Ratio(in *Instance, opt Time) float64 {
	if opt <= 0 {
		return 0
	}
	return float64(s.Makespan(in)) / float64(opt)
}
