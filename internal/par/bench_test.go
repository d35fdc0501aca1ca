package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkPoolRound measures the cost of one empty parallel-for round (the
// per-level barrier the DP pays on every anti-diagonal).
func BenchmarkPoolRound(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForWorker(workers, RoundRobin, 0, func(int, int) {})
			}
		})
	}
}

// BenchmarkForStrategies measures scheduling overhead per strategy over a
// level-sized iteration space with trivial bodies.
func BenchmarkForStrategies(b *testing.B) {
	const n = 4096
	var sink atomic.Int64
	for _, strategy := range strategies {
		b.Run(strategy.String(), func(b *testing.B) {
			p := NewPool(4)
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForWorker(n, strategy, 0, func(_, j int) {
					if j == n-1 {
						sink.Add(1)
					}
				})
			}
		})
	}
}
