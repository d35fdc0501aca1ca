package pcmax

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is one instance per stream:
//
//	# comment lines start with '#'
//	m <machines>
//	variant rs                  (optional: declared variant, letters r/s/w)
//	r <r1> <r2> ...             (optional: release times, one per job)
//	s <s1> <s2> ...             (optional: per-machine setup times)
//	w <machine> <start> <end> ...  (optional: availability windows)
//	<t1> <t2> ... (any number of whitespace-separated times, any line split)
//
// The section lines are recognized by their first field ("variant", "r",
// "s", "w"); every other non-comment field after the m header is a
// processing time, exactly as before the sections existed, so every plain
// stream parses byte-identically. Section lines repeat and append: a long
// release vector may be split over several "r" lines, and one "w <machine>"
// line per batch of start/end pairs adds windows to that machine. The
// layout mirrors the pyscheduling parallel-machine P/R/S file sections so
// external instance suites translate line for line.
//
// The JSON format is {"m": <machines>, "times": [...]} with the optional
// "release", "setup" and "windows" sections (omitted when empty).

// ErrBadFormat reports a malformed instance stream.
var ErrBadFormat = errors.New("pcmax: malformed instance")

// writeTimeRow writes values prefixed by keyword, wrapping at 16 per line.
func writeTimeRow(bw *bufio.Writer, keyword string, vals []Time) {
	for j, v := range vals {
		if j%16 == 0 {
			if j > 0 {
				bw.WriteByte('\n')
			}
			bw.WriteString(keyword)
		}
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatInt(int64(v), 10))
	}
	bw.WriteByte('\n')
}

// WriteText writes the instance in the line-oriented text format. Plain
// instances render exactly as they did before the variant sections existed;
// non-plain instances gain a "variant" declaration and the r/s/w sections
// between the m header and the processing times.
func WriteText(w io.Writer, in *Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "m %d\n", in.M)
	if v := in.Variant(); v != Plain {
		fmt.Fprintf(bw, "variant %s\n", v.Letters())
	}
	if len(in.Release) > 0 {
		writeTimeRow(bw, "r", in.Release)
	}
	if len(in.Setup) > 0 {
		writeTimeRow(bw, "s", in.Setup)
	}
	for mi, ws := range in.Windows {
		if len(ws) == 0 {
			continue
		}
		fmt.Fprintf(bw, "w %d", mi)
		for _, win := range ws {
			fmt.Fprintf(bw, " %d %d", win.Start, win.End)
		}
		bw.WriteByte('\n')
	}
	for j, t := range in.Times {
		if j > 0 {
			if j%16 == 0 {
				bw.WriteByte('\n')
			} else {
				bw.WriteByte(' ')
			}
		}
		bw.WriteString(strconv.FormatInt(int64(t), 10))
	}
	bw.WriteByte('\n')
	return bw.Flush()
}

// parseTimeFields parses whitespace-separated int64 fields into Times.
func parseTimeFields(fields []string, what string) ([]Time, error) {
	out := make([]Time, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad %s %q: %v", ErrBadFormat, what, f, err)
		}
		out = append(out, Time(v))
	}
	return out, nil
}

// ReadText parses the text format written by WriteText, including the
// optional variant sections. Streams without section lines parse exactly as
// they did before the sections existed. A declared "variant" line must cover
// every feature the sections actually use (it may over-declare, so a
// zero-valued release section under "variant r" is accepted).
func ReadText(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	in := &Instance{}
	seenM := false
	declared := Plain
	seenDecl := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		i := 0
		if !seenM {
			if len(fields) < 2 || fields[0] != "m" {
				return nil, fmt.Errorf("%w: expected 'm <machines>' header, got %q", ErrBadFormat, line)
			}
			m, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("%w: bad machine count %q: %v", ErrBadFormat, fields[1], err)
			}
			// Checked before a window line sizes a list per machine.
			if m > MaxMachines {
				return nil, fmt.Errorf("%w (m=%d)", ErrTooManyMachines, m)
			}
			in.M = m
			seenM = true
			i = 2
		} else {
			switch fields[0] {
			case "variant":
				if len(fields) != 2 {
					return nil, fmt.Errorf("%w: variant line wants one value, got %q", ErrBadFormat, line)
				}
				v, err := ParseVariant(fields[1])
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
				}
				declared, seenDecl = v, true
				continue
			case "r":
				vals, err := parseTimeFields(fields[1:], "release time")
				if err != nil {
					return nil, err
				}
				in.Release = append(in.Release, vals...)
				continue
			case "s":
				vals, err := parseTimeFields(fields[1:], "setup time")
				if err != nil {
					return nil, err
				}
				in.Setup = append(in.Setup, vals...)
				continue
			case "w":
				if len(fields) < 4 || (len(fields)-2)%2 != 0 {
					return nil, fmt.Errorf("%w: window line wants 'w <machine> <start> <end> ...', got %q", ErrBadFormat, line)
				}
				mi, err := strconv.Atoi(fields[1])
				if err != nil || mi < 0 || mi >= in.M {
					return nil, fmt.Errorf("%w: bad window machine %q (m=%d)", ErrBadFormat, fields[1], in.M)
				}
				vals, err := parseTimeFields(fields[2:], "window bound")
				if err != nil {
					return nil, err
				}
				if in.Windows == nil {
					in.Windows = make([][]Window, in.M)
				}
				for k := 0; k+1 < len(vals); k += 2 {
					in.Windows[mi] = append(in.Windows[mi], Window{Start: vals[k], End: vals[k+1]})
				}
				continue
			}
		}
		for ; i < len(fields); i++ {
			t, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad time %q: %v", ErrBadFormat, fields[i], err)
			}
			in.Times = append(in.Times, Time(t))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenM {
		return nil, fmt.Errorf("%w: missing 'm' header", ErrBadFormat)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if seenDecl {
		if det := in.Variant(); det&^declared != 0 {
			return nil, fmt.Errorf("%w: sections use variant %v but header declares only %v", ErrBadFormat, det, declared)
		}
	}
	return in, nil
}

type jsonInstance struct {
	M       int        `json:"m"`
	Times   []int64    `json:"times"`
	Release []int64    `json:"release,omitempty"`
	Setup   []int64    `json:"setup,omitempty"`
	Windows [][]Window `json:"windows,omitempty"`
}

func toInt64s(ts []Time) []int64 {
	if ts == nil {
		return nil
	}
	out := make([]int64, len(ts))
	for j, t := range ts {
		out[j] = int64(t)
	}
	return out
}

func toTimes(vs []int64) []Time {
	if vs == nil {
		return nil
	}
	out := make([]Time, len(vs))
	for j, v := range vs {
		out[j] = Time(v)
	}
	return out
}

// MarshalJSON implements json.Marshaler. Plain instances marshal exactly as
// before the variant sections existed; the optional sections appear only
// when present.
func (in *Instance) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonInstance{
		M:       in.M,
		Times:   toInt64s(in.Times),
		Release: toInt64s(in.Release),
		Setup:   toInt64s(in.Setup),
		Windows: in.Windows,
	})
}

// ReadJSON parses one JSON instance from r, mirroring ReadText for the JSON
// format written by MarshalJSON. The decoded instance is validated.
func ReadJSON(r io.Reader) (*Instance, error) {
	in := &Instance{}
	if err := json.NewDecoder(r).Decode(in); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return in, nil
}

// UnmarshalJSON implements json.Unmarshaler. The decoded instance is
// validated.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var ji jsonInstance
	if err := json.Unmarshal(data, &ji); err != nil {
		return err
	}
	in.M = ji.M
	in.Times = toTimes(ji.Times)
	if in.Times == nil {
		in.Times = []Time{}
	}
	in.Release = toTimes(ji.Release)
	in.Setup = toTimes(ji.Setup)
	in.Windows = ji.Windows
	return in.Validate()
}

// String renders a compact one-line summary, not the full instance. Plain
// instances render exactly as before; non-plain instances name their
// variant.
func (in *Instance) String() string {
	if v := in.Variant(); v != Plain {
		return fmt.Sprintf("pcmax.Instance{m=%d n=%d sum=%d max=%d variant=%s}",
			in.M, in.N(), in.TotalTime(), in.MaxTime(), v)
	}
	return fmt.Sprintf("pcmax.Instance{m=%d n=%d sum=%d max=%d}", in.M, in.N(), in.TotalTime(), in.MaxTime())
}

type jsonSchedule struct {
	M          int   `json:"m"`
	Assignment []int `json:"assignment"`
	Order      []int `json:"order,omitempty"`
}

// MarshalJSON implements json.Marshaler for schedules.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonSchedule{M: s.M, Assignment: s.Assignment, Order: s.Order})
}

// UnmarshalJSON implements json.Unmarshaler. Machine indices are checked
// against [0, m) or -1 (unassigned) and the optional order against being a
// permutation; full validation against an instance still requires Validate.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	if js.M < 1 {
		return fmt.Errorf("%w (m=%d)", ErrNoMachines, js.M)
	}
	for j, mi := range js.Assignment {
		if mi < -1 || mi >= js.M {
			return fmt.Errorf("%w (job %d -> machine %d of %d)", ErrBadAssignment, j, mi, js.M)
		}
	}
	if len(js.Order) > 0 {
		if len(js.Order) != len(js.Assignment) {
			return fmt.Errorf("%w (order has %d entries for %d jobs)", ErrBadOrder, len(js.Order), len(js.Assignment))
		}
		seen := make([]bool, len(js.Assignment))
		for _, j := range js.Order {
			if j < 0 || j >= len(seen) || seen[j] {
				return fmt.Errorf("%w (entry %d)", ErrBadOrder, j)
			}
			seen[j] = true
		}
	}
	s.M = js.M
	s.Assignment = js.Assignment
	s.Order = js.Order
	return nil
}

// Gantt renders an ASCII per-machine view of the schedule: one line per
// machine listing its jobs as j:t pairs and the machine load. On variant
// instances each machine additionally reports its completion time (or
// "infeasible") and lists its jobs in processing order. Intended for
// examples and debugging, not machine parsing.
func (s *Schedule) Gantt(in *Instance) string {
	var b strings.Builder
	loads := s.Loads(in)
	width := len(strconv.Itoa(s.M - 1))
	if in.Variant() != Plain {
		done, err := s.Completions(in)
		for mi, jobs := range s.sequences(in) {
			if err != nil {
				fmt.Fprintf(&b, "machine %*d | load %6d | done infeasible |", width, mi, loads[mi])
			} else {
				fmt.Fprintf(&b, "machine %*d | load %6d | done %6d |", width, mi, loads[mi], done[mi])
			}
			for _, j := range jobs {
				fmt.Fprintf(&b, " %d:%d", j, in.Times[j])
			}
			b.WriteByte('\n')
		}
		if err != nil {
			fmt.Fprintf(&b, "makespan infeasible (%v)\n", err)
		} else {
			fmt.Fprintf(&b, "makespan %d\n", s.Makespan(in))
		}
		return b.String()
	}
	perMachine := s.MachineJobs()
	for mi := 0; mi < s.M; mi++ {
		fmt.Fprintf(&b, "machine %*d | load %6d |", width, mi, loads[mi])
		for _, j := range perMachine[mi] {
			fmt.Fprintf(&b, " %d:%d", j, in.Times[j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "makespan %d\n", s.Makespan(in))
	return b.String()
}
