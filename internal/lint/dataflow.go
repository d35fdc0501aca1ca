package lint

// A small forward dataflow framework over the CFGs of cfg.go: analyses
// supply a join (merge at control-flow confluences) and a transfer function
// (effect of one basic block) and get the fixpoint facts at every block
// boundary. Both concurrency analyzers sit on it — lockorder runs a
// may-analysis (union join) over held-mutex sets, waitbalance a
// must-analysis (intersection join) over surely-called-Done sets — and the
// engine is deliberately generic so the next invariant check does not start
// from scratch.

// Fact is one dataflow fact. Implementations must be immutable once handed
// to the engine (Join and Transfer return fresh values) and EqualFact must
// be an equivalence so the fixpoint iteration can detect convergence.
type Fact interface {
	EqualFact(Fact) bool
}

// FlowProblem describes one forward dataflow analysis.
type FlowProblem struct {
	// Entry is the fact at function entry.
	Entry Fact
	// Join merges the facts of two predecessors at a control-flow join. It
	// must be commutative, associative and monotone for the iteration to
	// converge.
	Join func(a, b Fact) Fact
	// Transfer applies one basic block's effect to its incoming fact.
	Transfer func(b *Block, in Fact) Fact
}

// FlowResult holds the fixpoint facts. Blocks unreachable from the entry
// have no entry in either map (their facts are bottom).
type FlowResult struct {
	// In is the fact at each block's entry, Out at its exit.
	In, Out map[*Block]Fact
}

// Forward computes the forward fixpoint of the problem over the CFG with a
// worklist iteration. Termination requires the usual lattice conditions:
// finitely many facts reachable from Entry under Join/Transfer (every
// analyzer here works on finite sets drawn from the function's own
// identifiers, so height is bounded by construction).
func (c *CFG) Forward(p FlowProblem) *FlowResult {
	res := &FlowResult{In: map[*Block]Fact{}, Out: map[*Block]Fact{}}
	res.In[c.Entry] = p.Entry
	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := p.Transfer(b, res.In[b])
		if prev, ok := res.Out[b]; ok && prev.EqualFact(out) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			in, ok := res.In[s]
			merged := out
			if ok {
				merged = p.Join(in, out)
				if merged.EqualFact(in) {
					continue
				}
			}
			res.In[s] = merged
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return res
}
