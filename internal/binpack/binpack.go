// Package binpack implements first-fit bin packing with fixed capacity.
// It is the substrate under MultiFit (Coffman, Garey, Johnson — the MF
// algorithm discussed in the paper's related work).
package binpack

import (
	"errors"
	"fmt"
	"sort"

	"repro/pcmax"
)

// ErrItemTooLarge reports an item that exceeds the bin capacity: no packing
// exists at all.
var ErrItemTooLarge = errors.New("binpack: item larger than capacity")

// Result describes a packing: Assign[i] is the bin of item i (0-based) and
// Bins is the number of bins opened.
type Result struct {
	Assign []int
	Bins   int
}

// FirstFit packs the items in the given order: each item goes into the
// lowest-indexed bin it fits in, opening a new bin if none fits.
func FirstFit(items []pcmax.Time, capacity pcmax.Time) (Result, error) {
	res := Result{Assign: make([]int, len(items))}
	var space []pcmax.Time // remaining capacity per open bin
	for i, t := range items {
		if t <= 0 {
			return Result{}, fmt.Errorf("binpack: item %d has non-positive size %d", i, t)
		}
		if t > capacity {
			return Result{}, fmt.Errorf("%w (item %d size %d, capacity %d)", ErrItemTooLarge, i, t, capacity)
		}
		placed := false
		for b := range space {
			if space[b] >= t {
				space[b] -= t
				res.Assign[i] = b
				placed = true
				break
			}
		}
		if !placed {
			space = append(space, capacity-t)
			res.Assign[i] = len(space) - 1
		}
	}
	res.Bins = len(space)
	return res, nil
}

// FirstFitDecreasing sorts the items by non-increasing size (stably, ties
// by index) and runs FirstFit; Assign still refers to the original item
// order.
func FirstFitDecreasing(items []pcmax.Time, capacity pcmax.Time) (Result, error) {
	order := sortedDesc(items)
	reordered := make([]pcmax.Time, len(items))
	for k, i := range order {
		reordered[k] = items[i]
	}
	inner, err := FirstFit(reordered, capacity)
	if err != nil {
		return Result{}, err
	}
	res := Result{Assign: make([]int, len(items)), Bins: inner.Bins}
	for k, i := range order {
		res.Assign[i] = inner.Assign[k]
	}
	return res, nil
}

// sortedDesc returns item indices by non-increasing size, ties by index, so
// FFD is fully deterministic.
func sortedDesc(items []pcmax.Time) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if items[ia] != items[ib] {
			return items[ia] > items[ib]
		}
		return ia < ib
	})
	return order
}
