// Package simsched models the execution time of the paper's Parallel DP on
// a P-core shared-memory machine from a measured work profile.
//
// The paper's Section IV analysis states the cost model exactly: the
// Parallel DP performs n'+1 sequential iterations (one per anti-diagonal
// level); in iteration l, "if q_l >= P then each of the P processors compute
// at most ceil(q_l/P) subproblems from diagonal l; else q_l processors out
// of P compute the q_l subproblems, one per processor". Each subproblem costs
// the same (one sweep over the machine-configuration set), so the simulated
// time of one table fill on P cores is
//
//	sum over levels l of ( ceil(q_l / P) * entryCost + barrierCost )
//
// where entryCost is calibrated from the measured sequential fill time of
// the same table(s) and barrierCost models the level barrier.
//
// The simulator exists because parallel *wall-clock* speedup needs parallel
// hardware: the reproduction environment may have a single core, where
// goroutines interleave instead of overlapping. The profile is taken from
// the real fill of the real tables, so the simulation exercises exactly the
// schedules the paper analyzes; only the clock is modeled. Experiment output
// reports measured wall-clock and simulated speedup side by side.
package simsched

import (
	"errors"
	"fmt"
	"time"
)

// Profile is the work profile of one complete PTAS run: one entry per
// bisection iteration that filled a DP table.
type Profile struct {
	// Levels[i][l] is q_l, the number of DP entries on anti-diagonal l of
	// iteration i's table.
	Levels [][]int64
	// Configs[i] is the size of iteration i's machine-configuration set;
	// the per-entry work is proportional to it.
	Configs []int
	// SeqFill is the measured wall-clock time of all sequential table fills
	// combined; it calibrates the per-unit cost.
	SeqFill time.Duration
}

// TotalWork returns the profile's total work in config-scan units:
// sum over iterations of sigma_i * |C_i|.
func (p *Profile) TotalWork() float64 {
	var w float64
	for i, levels := range p.Levels {
		var sigma int64
		for _, q := range levels {
			sigma += q
		}
		c := p.Configs[i]
		if c < 1 {
			c = 1
		}
		w += float64(sigma) * float64(c)
	}
	return w
}

// Machine models the target multicore system.
type Machine struct {
	// Workers is P, the number of cores.
	Workers int
	// BarrierNs is the per-level barrier cost in nanoseconds. Shared-memory
	// barrier latencies on commodity multicores are on the order of a few
	// microseconds. 0 selects DefaultBarrierNs; negative values model an
	// ideal free barrier.
	BarrierNs float64
}

// DefaultBarrierNs approximates an OpenMP-style barrier on a 16-core
// shared-memory machine.
const DefaultBarrierNs = 2000

// ErrBadProfile reports an unusable profile.
var ErrBadProfile = errors.New("simsched: unusable profile")

// FillTime returns the simulated wall-clock time of all the profile's table
// fills on the machine.
func (m Machine) FillTime(p *Profile) (time.Duration, error) {
	if m.Workers < 1 {
		return 0, fmt.Errorf("simsched: machine needs at least one worker, got %d", m.Workers)
	}
	if len(p.Levels) != len(p.Configs) {
		return 0, fmt.Errorf("%w: %d level profiles but %d config counts", ErrBadProfile, len(p.Levels), len(p.Configs))
	}
	if p.SeqFill <= 0 {
		return 0, fmt.Errorf("%w: non-positive sequential fill time %v", ErrBadProfile, p.SeqFill)
	}
	total := p.TotalWork()
	if total <= 0 {
		return 0, nil // trivial tables fill in no modeled time
	}
	unitNs := float64(p.SeqFill.Nanoseconds()) / total // ns per config scan
	barrier := m.BarrierNs
	if barrier == 0 {
		barrier = DefaultBarrierNs
	} else if barrier < 0 {
		barrier = 0
	}
	P := int64(m.Workers)
	var ns float64
	for i, levels := range p.Levels {
		entryCost := unitNs * float64(max(p.Configs[i], 1))
		for _, q := range levels {
			if q == 0 {
				continue
			}
			rounds := (q + P - 1) / P // ceil(q_l / P) subproblems per core
			ns += float64(rounds) * entryCost
			if m.Workers > 1 {
				ns += barrier
			}
		}
	}
	return time.Duration(ns), nil
}

// Speedup returns the simulated speedup of the profile's fills on P cores
// relative to one core: FillTime(1) / FillTime(P).
func Speedup(p *Profile, workers int, barrierNs float64) (float64, error) {
	one, err := Machine{Workers: 1, BarrierNs: barrierNs}.FillTime(p)
	if err != nil {
		return 0, err
	}
	many, err := Machine{Workers: workers, BarrierNs: barrierNs}.FillTime(p)
	if err != nil {
		return 0, err
	}
	if many <= 0 {
		return 1, nil
	}
	return float64(one) / float64(many), nil
}
