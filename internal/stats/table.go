package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-width text table with an optional CSV rendering,
// used by cmd/schedbench to print the paper's figures and tables as rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one row. Short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := append([]string(nil), cells...)
	for len(row) < len(t.Header) {
		row = append(row, "")
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for c, h := range t.Header {
		widths[c] = len(h)
	}
	for _, row := range t.Rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for c := range t.Header {
			if c > 0 {
				b.WriteString("  ")
			}
			cell := ""
			if c < len(cells) {
				cell = cells[c]
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for c, cell := range cells {
			if c > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FmtFloat renders a float with the given number of decimals.
func FmtFloat(x float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, x)
}
