package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean of 1..4")
	}
	if Mean(nil) != 0 {
		t.Fatal("mean of empty")
	}
	if !almost(Mean([]float64{7}), 7) {
		t.Fatal("mean of singleton")
	}
}

func TestMeanWithinMinMaxProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-9 && m <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
