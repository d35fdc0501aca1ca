package stats

import (
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	tbl := NewTable("Title here", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b", "22222")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Title here", "name", "value", "alpha", "22222", "-----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Columns align: every data line has "  " at the same offset as the
	// header separator.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableRenderPadsShortRows(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("only")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only") {
		t.Fatal("row lost")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("ignored", "name", "value")
	tbl.AddRow("plain", "1")
	tbl.AddRow(`with,comma`, `with"quote`)
	var sb strings.Builder
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "name,value\n") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Fatalf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Fatalf("quote cell not escaped: %s", out)
	}
}

func TestFmtFloat(t *testing.T) {
	if got := FmtFloat(3.14159, 2); got != "3.14" {
		t.Fatalf("FmtFloat = %q", got)
	}
	if got := FmtFloat(2, 0); got != "2" {
		t.Fatalf("FmtFloat = %q", got)
	}
}
