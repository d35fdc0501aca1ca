package pcmax

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/big"
	"slices"
	"strings"
	"testing"
)

// checkCaps is the readers' overflow oracle, written without Validate so a
// cap deleted from Validate cannot pass it: every time, release, setup and
// window end of an accepted instance is at most MaxTimeValue, every window
// starts at 0 or later, and the exact total (summed in math/big, so the sum
// itself cannot overflow) is at most MaxTotalTime.
func checkCaps(t *testing.T, in *Instance, input string) {
	t.Helper()
	total := new(big.Int)
	for j, p := range in.Times {
		if p > MaxTimeValue {
			t.Fatalf("accepted job %d with time %d > MaxTimeValue\ninput: %q", j, p, input)
		}
		total.Add(total, big.NewInt(int64(p)))
	}
	if total.Cmp(big.NewInt(int64(MaxTotalTime))) > 0 {
		t.Fatalf("accepted a total of %v > MaxTotalTime\ninput: %q", total, input)
	}
	for j, r := range in.Release {
		if r > MaxTimeValue {
			t.Fatalf("accepted job %d with release %d > MaxTimeValue\ninput: %q", j, r, input)
		}
	}
	for i, st := range in.Setup {
		if st > MaxTimeValue {
			t.Fatalf("accepted machine %d with setup %d > MaxTimeValue\ninput: %q", i, st, input)
		}
	}
	for i, ws := range in.Windows {
		for k, w := range ws {
			if w.Start < 0 || w.End > MaxTimeValue {
				t.Fatalf("accepted machine %d window %d [%d,%d) outside [0, MaxTimeValue]\ninput: %q", i, k, w.Start, w.End, input)
			}
		}
	}
}

// FuzzReadText drives the text parser with arbitrary streams and checks the
// format's core invariants on every accepted instance:
//
//  1. accepted instances hold the overflow caps (checkCaps), and
//  2. the write->reparse->write cycle is a fixed point: writing the parsed
//     instance, reading it back and writing again produces byte-identical
//     output, so WriteText is a canonical form for everything ReadText
//     accepts.
//
// The seed corpus covers the plain grammar and every optional section
// (variant declaration, release, setup and window lines, including wrapped
// multi-line sections).
func FuzzReadText(f *testing.F) {
	seeds := []string{
		"m 2\n5 3 7\n",
		"m 1\n5\n",
		"m 3 1 2 3\n",
		"# comment\nm 2\n\n5 3\n",
		"m 2\nvariant rs\nr 0 4\ns 1 0\n5 3\n",
		"m 2\nvariant rsw\nr 0 4\ns 1 0\nw 0 0 40\nw 1 2 10 15 60\n5 3\n",
		"m 2\nr 0 4\nr 1 2\n5 3 7 2\n",
		"m 1\nvariant w\nw 0 0 5 10 13\n3 4\n",
		"m 2\nvariant plain\n5 3\n",
		// Near-MaxInt64 and cap-boundary values: a reader that accepts one
		// past a cap fails checkCaps on these seeds in plain go test.
		"m 1\n9223372036854775807\n",
		"m 1\n9223372036854775806 1\n",
		"m 2\n1125899906842624 1125899906842624\n",
		"m 1\n1125899906842625\n",
		"m 1\nvariant r\nr 0 9223372036854775807\n5\n",
		"m 1\nvariant w\nw 0 1 9223372036854775807\n5\n",
		// A window line once sized a list per machine before m was capped:
		// this input ran out of memory.
		"m 685477581\nvariant w\nw 0 1 9223372036854775807\n5\n",
		"m 0\n\n",
		"m 2\nw 0 1\n5 3\n",
		"m 2\nvariant q\n5 3\n",
		"not an instance",
		"",
		// Near-MaxInt64 setup and release values that only the caps reject.
		// The release seed above gives two values for one job, so its count
		// check rejects it first.
		"m 1\nvariant s\ns 9223372036854775807\n5\n",
		"m 1\nvariant r\nr 9223372036854775807\n5\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		in, err := ReadText(strings.NewReader(text))
		if err != nil {
			return // rejecting is always fine; not crashing is the point
		}
		checkCaps(t, in, text)
		var first bytes.Buffer
		if err := WriteText(&first, in); err != nil {
			t.Fatalf("WriteText failed on accepted instance: %v\ninput: %q", err, text)
		}
		back, err := ReadText(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadText rejected WriteText output: %v\noutput: %q", err, first.String())
		}
		var second bytes.Buffer
		if err := WriteText(&second, back); err != nil {
			t.Fatalf("WriteText failed on reparsed instance: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write->reparse->write not a fixed point:\nfirst:  %q\nsecond: %q", first.String(), second.String())
		}
		if got, want := back.Variant(), in.Variant(); got != want {
			t.Fatalf("variant changed across round trip: %v -> %v", want, got)
		}
	})
}

// FuzzReadJSON mirrors FuzzReadText for the JSON format: every instance the
// reader accepts must hold the overflow caps (checkCaps), and
// marshal->reread->marshal must be a fixed point. The seed corpus covers the
// plain object, every optional section, malformed input, and cap-boundary
// values near MaxInt64.
func FuzzReadJSON(f *testing.F) {
	seeds := []string{
		`{"m":2,"times":[5,3,7]}`,
		`{"m":1,"times":[5]}`,
		`{"m":2,"times":[5,3],"release":[0,4],"setup":[1,0]}`,
		`{"m":2,"times":[5,3],"windows":[[{"start":0,"end":40}],[]]}`,
		`{"m":2,"times":[5,3],"release":[0,4],"setup":[1,0],"windows":[[{"start":0,"end":40}],[{"start":2,"end":10},{"start":15,"end":60}]]}`,
		`{"m":0,"times":[]}`,
		`{"m":2,"times":[5,-3]}`,
		// Cap-boundary and near-MaxInt64 values, as in FuzzReadText.
		`{"m":1,"times":[9223372036854775807]}`,
		`{"m":1,"times":[9223372036854775806,1]}`,
		`{"m":1,"times":[1125899906842624]}`,
		`{"m":1,"times":[1125899906842625]}`,
		`{"m":2,"times":[4611686018427387904,4611686018427387904,4611686018427387904]}`,
		`{"m":1,"times":[5],"release":[9223372036854775807]}`,
		`{"m":1,"times":[5],"windows":[[{"start":1,"end":9223372036854775807}]]}`,
		`{"m":685477581,"times":[5],"windows":[[{"start":1,"end":9}]]}`,
		`not json`,
		``,
		// A near-MaxInt64 setup value that only the setup cap rejects.
		`{"m":1,"times":[5],"setup":[9223372036854775807]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejecting is always fine; not crashing is the point
		}
		checkCaps(t, in, string(data))
		first, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal failed on accepted instance: %v\ninput: %q", err, data)
		}
		back, err := ReadJSON(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("ReadJSON rejected Marshal output: %v\noutput: %q", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("Marshal failed on reread instance: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal->reread->marshal not a fixed point:\nfirst:  %q\nsecond: %q", first, second)
		}
		if got, want := back.Variant(), in.Variant(); got != want {
			t.Fatalf("variant changed across round trip: %v -> %v", want, got)
		}
	})
}

// FuzzSortedIndex checks SortedIndex's radix sort against the comparison
// sort it must reproduce (sortedIndexOracle) on arbitrary job times. The
// first byte picks how many low bits of each value to keep, so narrow ranges
// full of ties and full-width values (negative ones included: SortedIndex
// needs no validated instance) both occur; each following 8 bytes are one
// value, little-endian.
func FuzzSortedIndex(f *testing.F) {
	word := func(vs ...uint64) []byte {
		out := []byte{64}
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	f.Add([]byte{})
	f.Add(word(5))
	f.Add(word(3, 9, 1, 9, 5))
	f.Add(word(4, 4, 4, 4))
	f.Add(word(1, uint64(MaxTimeValue), 1, uint64(MaxTimeValue)-1))
	f.Add(word(1, 1+1<<16, 1+2<<16, 1))
	f.Add(word(1<<63, 1<<63-1, 0, 1<<63, 1))
	f.Add(append([]byte{4}, word(17, 33, 2, 250, 18, 1, 16)[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		keep := uint(data[0] % 65)
		data = data[1:]
		times := make([]Time, len(data)/8)
		for i := range times {
			v := binary.LittleEndian.Uint64(data[8*i:])
			if keep < 64 {
				v &= 1<<keep - 1
			}
			times[i] = Time(v)
		}
		in := &Instance{M: 1, Times: times}
		if got, want := in.SortedIndex(), sortedIndexOracle(times); !slices.Equal(got, want) {
			t.Fatalf("SortedIndex(%v) = %v, want %v", times, got, want)
		}
	})
}
