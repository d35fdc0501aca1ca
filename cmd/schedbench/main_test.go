package main

import "testing"

func TestParseCores(t *testing.T) {
	got, err := parseCores("1,2, 4 ,16")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseCoresErrors(t *testing.T) {
	for _, bad := range []string{"", "a", "0", "-2", "1,x"} {
		if _, err := parseCores(bad); err == nil {
			t.Fatalf("parseCores(%q) should fail", bad)
		}
	}
}

func TestParseCoresSkipsEmptyParts(t *testing.T) {
	got, err := parseCores("1,,2")
	if err != nil || len(got) != 2 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestRunRequiresExperiment(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("want usage error with no experiment")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"fig9"}); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestRunBadCoresFlag(t *testing.T) {
	if err := run([]string{"-cores", "zero", "fig2"}); err == nil {
		t.Fatal("want error for bad cores")
	}
}

func TestGateSpeedup(t *testing.T) {
	recs := []dpRecord{
		{Workload: "fig2", Family: "uniform", Workers: 1, Path: "production", SpeedupAlg2: 13.5},
		{Workload: "fig3", Family: "uniform", Workers: 1, Path: "production", SpeedupAlg2: 1.4},
		// Only production cells are gated: the paper's fills and the sparse
		// production cells, which carry no speedup_vs_alg2, are outside it.
		{Workload: "fig2", Family: "uniform", Workers: 4, Path: "alg3", SpeedupAlg2: 0.01},
		{Workload: "fig2", Family: "uniform", Workers: 1, Path: "alg2"},
		{Workload: "fig2", Family: "uniform", Workers: 1, Path: "production", Enum: "sparse"},
	}
	if err := gateSpeedup(recs, 2); err == nil {
		t.Fatal("want failure: a production cell sits below the floor")
	}
	if err := gateSpeedup(recs, 1.2); err != nil {
		t.Fatalf("all production cells above floor, got %v", err)
	}
	if err := gateSpeedup(recs[:1], 2); err != nil {
		t.Fatalf("single passing cell, got %v", err)
	}
	if err := gateSpeedup(recs[2:], 0.5); err == nil {
		t.Fatal("want failure: no production cell to check")
	}
}

func TestAttachSpeedupsDividesByAlg2(t *testing.T) {
	recs := []dpRecord{
		{Workload: "fig3", Family: "uniform", Eps: 0.3, Enum: "faithful", Workers: 1, Path: "production", NsPerOp: 100},
		{Workload: "fig3", Family: "uniform", Eps: 0.3, Enum: "faithful", Workers: 1, Path: "alg2", NsPerOp: 1500},
		{Workload: "fig3", Family: "uniform", Eps: 0.3, Enum: "faithful", Workers: 2, Path: "alg3", NsPerOp: 3000},
		{Workload: "fig3", Family: "uniform", Eps: 0.3, Enum: "sparse", Workers: 1, Path: "production", NsPerOp: 50},
	}
	attachSpeedups(recs)
	if recs[0].SpeedupAlg2 != 15 || recs[2].SpeedupAlg2 != 0.5 {
		t.Fatalf("speedup_vs_alg2 = %v (production), %v (alg3); want 15, 0.5", recs[0].SpeedupAlg2, recs[2].SpeedupAlg2)
	}
	if recs[1].SpeedupAlg2 != 0 || recs[3].SpeedupAlg2 != 0 {
		t.Fatalf("alg2 and sparse rows carry speedup_vs_alg2: %+v, %+v", recs[1], recs[3])
	}
	if recs[3].SpeedupFaithful != 2 {
		t.Fatalf("sparse speedup_vs_faithful = %v, want 2", recs[3].SpeedupFaithful)
	}
}
