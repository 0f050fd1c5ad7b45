package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is one figure's data: an x axis and one series of y values per
// algorithm, rendered the way the paper plots it.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []string
	XS     []string
	// Cells[x][series] = value; missing cells render as "-".
	Cells map[string]map[string]float64
	// Notes carry run metadata (seed, scale, parameters); like the
	// cells, they are functions of the seed.
	Notes []string
}

// NewTable prepares an empty table with the given series order.
func NewTable(title, xlabel, ylabel string, series []string) *Table {
	return &Table{
		Title:  title,
		XLabel: xlabel,
		YLabel: ylabel,
		Series: series,
		Cells:  make(map[string]map[string]float64),
	}
}

// Set records one measurement.
func (t *Table) Set(x, series string, v float64) {
	if _, seen := t.Cells[x]; !seen {
		t.XS = append(t.XS, x)
		t.Cells[x] = make(map[string]float64)
	}
	t.Cells[x][series] = v
}

// Row records row x's cells, one value per series in series order.
func (t *Table) Row(x string, vals ...float64) {
	for i, v := range vals {
		t.Set(x, t.Series[i], v)
	}
}

// Get returns the cell value and whether it is present.
func (t *Table) Get(x, series string) (float64, bool) {
	row, ok := t.Cells[x]
	if !ok {
		return 0, false
	}
	v, ok := row[series]
	return v, ok
}

// Render writes a fixed-width text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "  y: %s\n", t.YLabel)
	widths := make([]int, len(t.Series)+1)
	widths[0] = len(t.XLabel)
	for _, x := range t.XS {
		if len(x) > widths[0] {
			widths[0] = len(x)
		}
	}
	for i, s := range t.Series {
		widths[i+1] = len(s)
		for _, x := range t.XS {
			if v, ok := t.Get(x, s); ok {
				if n := len(formatCell(v)); n > widths[i+1] {
					widths[i+1] = n
				}
			}
		}
	}
	line := func(parts []string) {
		row := make([]string, len(parts))
		for i, p := range parts {
			row[i] = fmt.Sprintf("%*s", widths[i], p)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(row, "  "))
	}
	header := append([]string{t.XLabel}, t.Series...)
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, x := range t.XS {
		parts := []string{x}
		for _, s := range t.Series {
			if v, ok := t.Get(x, s); ok {
				parts = append(parts, formatCell(v))
			} else {
				parts = append(parts, "-")
			}
		}
		line(parts)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	cols := append([]string{t.XLabel}, t.Series...)
	fmt.Fprintln(w, strings.Join(cols, ","))
	for _, x := range t.XS {
		parts := []string{x}
		for _, s := range t.Series {
			if v, ok := t.Get(x, s); ok {
				parts = append(parts, fmt.Sprintf("%g", v))
			} else {
				parts = append(parts, "")
			}
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
}

func formatCell(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e6:
		return fmt.Sprintf("%.0f", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
