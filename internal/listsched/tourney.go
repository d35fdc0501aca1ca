package listsched

import "repro/pcmax"

// tourney is a loser tree over m machines, keyed by (load, index). Indices
// are distinct, so the order is total and the least-loaded, lowest-index
// machine is unique: the machine the paper's Lines 45-48 pick by scanning in
// index order and keeping the first strict minimum.
//
// The leaves are the machines: leaf p (m <= p < 2m) is machine p-m. The
// internal nodes are 1..m-1, node n playing the match between the winners of
// its children 2n and 2n+1; this layout is a full binary tree for every
// m >= 1. node[n] keeps the match's loser and node[0] the overall winner, so
// every machine sits in exactly one slot. Raising the winner's load changes
// only the matches on its leaf-to-root path, and each of them is replayed
// against the loser kept there with a select instead of a branch.
type tourney struct {
	load []pcmax.Time // load[i] is machine i's load
	node []int64      // machine indices: node[0] the winner, node[n] the loser at n
}

// newTourney returns m empty machines in one allocation. Callers add
// existing loads with t.load[i] += d and then call build.
func newTourney(m int) tourney {
	buf := make([]int64, 2*m)
	return tourney{load: buf[:m:m], node: buf[m:]}
}

// before reports whether machine a with load la precedes machine b with
// load lb in (load, index) order. Both operands are picked by conditional
// moves and compared once, so the result costs no branch.
func before(la pcmax.Time, a int64, lb pcmax.Time, b int64) bool {
	if la == lb {
		la, lb = a, b
	}
	return la < lb
}

// winner returns the winner of the subtree at position p during build, when
// node[p] still holds its internal node's winner.
func (t tourney) winner(p int) int64 {
	if m := len(t.load); p >= m {
		return int64(p - m)
	}
	return t.node[p]
}

// build plays every match from the current loads: one bottom-up pass leaves
// each internal node's winner in its slot, and one top-down pass turns each
// slot into the loser of its match (the child winner other than its own),
// so the build needs no scratch beyond the tree.
func (t tourney) build() {
	m := len(t.load)
	if m == 0 {
		return
	}
	for n := m - 1; n >= 1; n-- {
		a, b := t.winner(2*n), t.winner(2*n+1)
		if before(t.load[b], b, t.load[a], a) {
			a = b
		}
		t.node[n] = a
	}
	t.node[0] = t.winner(1)
	// Top-down, a node's children still hold their winners when it is
	// visited; its winner is one of the two, so the XOR leaves the other.
	for n := 1; n < m; n++ {
		t.node[n] ^= t.winner(2*n) ^ t.winner(2*n+1)
	}
}

// place adds d to the least-loaded machine's load and returns its index.
func (t tourney) place(d pcmax.Time) int {
	load, node := t.load, t.node
	w := node[0]
	load[w] += d
	c, lc := w, load[w]
	for n := (int(w) + len(load)) >> 1; n > 0; n >>= 1 {
		// The kept loser l wins the replay when it precedes c; the
		// match's new loser stays at n and its winner moves up.
		l := node[n]
		ll := load[l]
		if before(ll, l, lc, c) {
			c, l, lc = l, c, ll
		}
		node[n] = l
	}
	node[0] = c
	return int(w)
}

// max returns the largest machine load.
func (t tourney) max() pcmax.Time {
	var ms pcmax.Time
	for _, l := range t.load {
		if l > ms {
			ms = l
		}
	}
	return ms
}
