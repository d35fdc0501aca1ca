package pcmax

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestTextRoundTrip(t *testing.T) {
	in := &Instance{M: 4, Times: []Time{10, 7, 7, 5, 5, 4, 4, 3}}
	var buf bytes.Buffer
	if err := WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualInstances(t, in, got)
}

func TestTextRoundTripLongInstanceWraps(t *testing.T) {
	times := make([]Time, 100)
	for i := range times {
		times[i] = Time(i + 1)
	}
	in := &Instance{M: 7, Times: times}
	var buf bytes.Buffer
	if err := WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines < 3 {
		t.Fatalf("expected wrapped output, got %d lines", lines)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualInstances(t, in, got)
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	src := "# header comment\n\nm 2\n# mid comment\n3 4\n\n5\n"
	in, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualInstances(t, &Instance{M: 2, Times: []Time{3, 4, 5}}, in)
}

func TestReadTextTimesOnHeaderLine(t *testing.T) {
	in, err := ReadText(strings.NewReader("m 2 3 4 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualInstances(t, &Instance{M: 2, Times: []Time{3, 4, 5}}, in)
}

func TestReadTextMissingHeader(t *testing.T) {
	_, err := ReadText(strings.NewReader("3 4 5\n"))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

func TestReadTextEmptyStream(t *testing.T) {
	_, err := ReadText(strings.NewReader(""))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

func TestReadTextBadMachineCount(t *testing.T) {
	_, err := ReadText(strings.NewReader("m two\n1 2\n"))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

func TestReadTextBadTime(t *testing.T) {
	_, err := ReadText(strings.NewReader("m 2\n1 x 3\n"))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}

func TestReadTextRejectsInvalidInstance(t *testing.T) {
	// Parses fine but t=0 violates the model.
	_, err := ReadText(strings.NewReader("m 2\n1 0 3\n"))
	if !errors.Is(err, ErrNonPositiveTime) {
		t.Fatalf("want ErrNonPositiveTime, got %v", err)
	}
}

func TestWriteTextRejectsInvalidInstance(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, &Instance{M: 0, Times: []Time{1}}); !errors.Is(err, ErrNoMachines) {
		t.Fatalf("want ErrNoMachines, got %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := &Instance{M: 3, Times: []Time{9, 9, 1}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var got Instance
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	assertEqualInstances(t, in, &got)
}

func TestJSONRejectsInvalidInstance(t *testing.T) {
	var got Instance
	err := json.Unmarshal([]byte(`{"m":0,"times":[1]}`), &got)
	if !errors.Is(err, ErrNoMachines) {
		t.Fatalf("want ErrNoMachines, got %v", err)
	}
}

func TestJSONFieldNames(t *testing.T) {
	data, err := json.Marshal(&Instance{M: 2, Times: []Time{5}})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"m":2`) || !strings.Contains(s, `"times":[5]`) {
		t.Fatalf("unexpected JSON %s", s)
	}
}

func TestStringSummary(t *testing.T) {
	s := (&Instance{M: 2, Times: []Time{5, 3}}).String()
	for _, want := range []string{"m=2", "n=2", "sum=8", "max=5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestTextRoundTripProperty(t *testing.T) {
	f := func(mRaw uint8, raw []uint16) bool {
		in := &Instance{M: int(mRaw%20) + 1}
		for _, r := range raw {
			in.Times = append(in.Times, Time(r)+1)
		}
		if len(in.Times) == 0 {
			in.Times = []Time{1}
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, in); err != nil {
			return false
		}
		got, err := ReadText(&buf)
		if err != nil {
			return false
		}
		if got.M != in.M || len(got.Times) != len(in.Times) {
			return false
		}
		for i := range in.Times {
			if got.Times[i] != in.Times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func assertEqualInstances(t *testing.T, want, got *Instance) {
	t.Helper()
	if got.M != want.M {
		t.Fatalf("m = %d, want %d", got.M, want.M)
	}
	if len(got.Times) != len(want.Times) {
		t.Fatalf("n = %d, want %d", len(got.Times), len(want.Times))
	}
	for i := range want.Times {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("times[%d] = %d, want %d", i, got.Times[i], want.Times[i])
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := &Schedule{M: 3, Assignment: []int{0, 2, 1, -1}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schedule
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.M != 3 || len(got.Assignment) != 4 {
		t.Fatalf("round trip: %+v", got)
	}
	for j := range s.Assignment {
		if got.Assignment[j] != s.Assignment[j] {
			t.Fatalf("assignment[%d] = %d", j, got.Assignment[j])
		}
	}
}

func TestScheduleJSONRejectsBadMachine(t *testing.T) {
	var got Schedule
	if err := json.Unmarshal([]byte(`{"m":2,"assignment":[0,5]}`), &got); err == nil {
		t.Fatal("want range error")
	}
	if err := json.Unmarshal([]byte(`{"m":0,"assignment":[]}`), &got); err == nil {
		t.Fatal("want m error")
	}
}

func TestScheduleJSONAllowsUnassigned(t *testing.T) {
	var got Schedule
	if err := json.Unmarshal([]byte(`{"m":2,"assignment":[-1,1]}`), &got); err != nil {
		t.Fatal(err)
	}
}

// TestReadersCapMachines is the regression test for an out-of-memory read:
// a window line once sized a list per machine before m was capped, so a
// 60-byte text with m near 7·10^8 died in make. Both readers reject m above
// MaxMachines without sizing anything by it, and a windowed instance at the
// cap still reads.
func TestReadersCapMachines(t *testing.T) {
	_, err := ReadText(strings.NewReader("m 685477581\nvariant w\nw 0 1 9223372036854775807\n5\n"))
	if !errors.Is(err, ErrTooManyMachines) {
		t.Fatalf("ReadText: want ErrTooManyMachines, got %v", err)
	}
	var got Instance
	err = json.Unmarshal([]byte(`{"m":685477581,"times":[5],"windows":[[{"start":1,"end":9}]]}`), &got)
	if !errors.Is(err, ErrTooManyMachines) {
		t.Fatalf("UnmarshalJSON: want ErrTooManyMachines, got %v", err)
	}
	in, err := ReadText(strings.NewReader(fmt.Sprintf("m %d\nvariant w\nw %d 0 5\n5\n", MaxMachines, MaxMachines-1)))
	if err != nil {
		t.Fatalf("windowed instance at the cap: %v", err)
	}
	if in.M != MaxMachines || !in.Restricted(MaxMachines-1) {
		t.Fatalf("read m=%d, last machine restricted %v", in.M, in.Restricted(MaxMachines-1))
	}
}
