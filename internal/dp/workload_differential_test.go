package dp_test

// External differential suite: proves the production fill FillAutoCtx
// bit-identical to FillSequential on rounded instances from all six
// workload families of the paper's evaluation. It lives outside package dp
// because deriving the rounded (sizes, counts, T) triples uses
// internal/core, which imports dp.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/par"
	"repro/internal/workload"
)

func TestFillAutoBitIdenticalAcrossWorkloadFamilies(t *testing.T) {
	bp := par.NewBarrierPool(4)
	defer bp.Close()

	for _, fam := range workload.Families {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			in, err := workload.Generate(workload.Spec{Family: fam, M: 10, N: 50, Seed: 2017})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			_, st, err := core.Solve(t.Context(), in, opts)
			if err != nil {
				t.Fatal(err)
			}
			sizes, counts, err := core.RoundedClasses(in, st.K, st.FinalT)
			if err != nil {
				t.Fatal(err)
			}
			if len(sizes) == 0 {
				t.Skipf("family %v has no long jobs at T=%d", fam, st.FinalT)
			}
			mk := func() *dp.Table {
				tbl, err := dp.New(sizes, counts, st.FinalT, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				return tbl
			}
			ref := mk()
			if err := ref.FillSequentialCtx(t.Context()); err != nil {
				t.Fatal(err)
			}

			auto := mk()
			if err := auto.FillAutoCtx(t.Context(), bp); err != nil {
				t.Fatal(err)
			}
			for i := range ref.Opt {
				if auto.Opt[i] != ref.Opt[i] {
					t.Fatalf("family %v: Opt[%d] = %d, want %d", fam, i, auto.Opt[i], ref.Opt[i])
				}
			}
			if s := auto.AutoStats; s.LevelsInline != auto.NPrime || s.LevelsFused+s.LevelsParallel != 0 {
				t.Fatalf("family %v: AutoStats %+v, want all %d levels inline", fam, s, auto.NPrime)
			}
		})
	}
}
