package listsched

import (
	"bytes"
	"testing"

	"repro/pcmax"
)

// FuzzAssignGreedy checks AssignGreedy against naiveGreedy on arbitrary
// inputs. mRaw picks m = 1 + mRaw%130 machines, so every tree shape up to
// 2^7+1 occurs; each byte b of times is one job of time 1 + b%(spread+1), so
// a small spread fills the machines with ties. Job j starts on machine pre[j]
// when j < len(pre) and pre[j] < m (a partial long-job schedule); every other
// job is listed, in input order.
func FuzzAssignGreedy(f *testing.F) {
	ramp := func(n int) []byte {
		out := make([]byte, n)
		for j := range out {
			out[j] = byte(j * 7 % 251)
		}
		return out
	}
	f.Add(uint8(0), uint8(255), []byte{4, 9, 2, 9}, []byte(nil))
	for _, m := range []int{2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65, 127, 129} {
		f.Add(uint8(m-1), uint8(2), ramp(3*m+1), []byte(nil))
	}
	f.Add(uint8(8), uint8(0), bytes.Repeat([]byte{0}, 40), []byte(nil))
	f.Add(uint8(16), uint8(0), bytes.Repeat([]byte{0}, 50), []byte{3, 3, 16, 0})
	long := []byte{199, 149, 119, 89, 59, 4, 3, 3, 2, 2, 1, 1, 0, 0}
	f.Add(uint8(4), uint8(255), long, []byte{0, 1, 2, 3, 4})
	f.Add(uint8(4), uint8(255), long, []byte{0, 0, 2, 2, 4})
	f.Fuzz(func(t *testing.T, mRaw, spread uint8, times, pre []byte) {
		if len(times) > 400 {
			times = times[:400]
		}
		m := 1 + int(mRaw)%130
		in := &pcmax.Instance{M: m, Times: make([]pcmax.Time, len(times))}
		sched := pcmax.NewSchedule(m, len(times))
		var order []int
		for j, b := range times {
			in.Times[j] = 1 + pcmax.Time(b)%(pcmax.Time(spread)+1)
			if j < len(pre) && int(pre[j]) < m {
				sched.Assignment[j] = int(pre[j])
			} else {
				order = append(order, j)
			}
		}
		checkGreedy(t, in, sched, order)
	})
}
