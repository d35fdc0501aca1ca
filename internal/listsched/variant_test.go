package listsched

import (
	"errors"
	"testing"

	"repro/internal/workload"
	"repro/pcmax"
)

func TestGeneralMatchesPlainBitForBit(t *testing.T) {
	// On plain instances the general greedy must route through the plain
	// greedy path (AssignGreedy) and return the identical schedule,
	// assignment by assignment.
	for seed := uint64(1); seed <= 8; seed++ {
		in := workload.MustGenerate(workload.Spec{Family: workload.U1_100, M: 4, N: 30, Seed: seed})
		ls, err := LSGeneral(in)
		if err != nil {
			t.Fatal(err)
		}
		lpt, err := LPTGeneral(in)
		if err != nil {
			t.Fatal(err)
		}
		wantLS, wantLPT := LS(in), LPT(in)
		for j := range in.Times {
			if ls.Assignment[j] != wantLS.Assignment[j] {
				t.Fatalf("seed %d: LSGeneral diverges from LS at job %d", seed, j)
			}
			if lpt.Assignment[j] != wantLPT.Assignment[j] {
				t.Fatalf("seed %d: LPTGeneral diverges from LPT at job %d", seed, j)
			}
		}
	}
}

func TestGeneralVariantFeasible(t *testing.T) {
	variants := []pcmax.Variant{
		pcmax.ReleaseTimes, pcmax.SetupTimes, pcmax.TimeRestricted, pcmax.AllVariants,
	}
	for _, v := range variants {
		for seed := uint64(1); seed <= 4; seed++ {
			in := workload.MustGenerateVariant(workload.VariantSpec{
				Spec:    workload.Spec{Family: workload.U1_100, M: 3, N: 20, Seed: seed},
				Variant: v,
			})
			for name, fn := range map[string]func(*pcmax.Instance) (*pcmax.Schedule, error){
				"ls": LSGeneral, "lpt": LPTGeneral,
			} {
				sched, err := fn(in)
				if err != nil {
					t.Fatalf("%s %v seed %d: %v", name, v, seed, err)
				}
				if err := sched.Validate(in); err != nil {
					t.Fatalf("%s %v seed %d: invalid: %v", name, v, seed, err)
				}
				if err := sched.Feasible(in); err != nil {
					t.Fatalf("%s %v seed %d: infeasible: %v", name, v, seed, err)
				}
				if len(sched.Order) != in.N() {
					t.Fatalf("%s %v seed %d: Order has %d entries for %d jobs",
						name, v, seed, len(sched.Order), in.N())
				}
			}
		}
	}
}

func TestGeneralEarliestCompletionBeatsLoad(t *testing.T) {
	// Machine 0 pays setup 10, machine 1 pays 0. Least-load would alternate;
	// earliest-completion sends every job to machine 1 (0+2+3+4 = 9 < 12).
	in := &pcmax.Instance{M: 2, Times: []pcmax.Time{4, 3, 2}, Setup: []pcmax.Time{10, 0}}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	sched, err := LPTGeneral(in)
	if err != nil {
		t.Fatal(err)
	}
	for j, mi := range sched.Assignment {
		if mi != 1 {
			t.Fatalf("job %d on machine %d, want 1", j, mi)
		}
	}
	if ms := sched.Makespan(in); ms != 9 {
		t.Fatalf("makespan %d, want 9", ms)
	}
}

func TestGeneralNoFit(t *testing.T) {
	in := &pcmax.Instance{M: 1, Times: []pcmax.Time{7},
		Windows: [][]pcmax.Window{{{Start: 0, End: 5}}}}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := LSGeneral(in); !errors.Is(err, ErrNoFit) {
		t.Fatalf("LSGeneral: want ErrNoFit, got %v", err)
	}
	if _, err := LPTGeneral(in); !errors.Is(err, ErrNoFit) {
		t.Fatalf("LPTGeneral: want ErrNoFit, got %v", err)
	}
}
