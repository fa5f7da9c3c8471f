package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table renders experiment rows as aligned plain text, the format every
// experiment (and so aitf-bench) prints.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FormatFloat renders floats compactly: integers without decimals,
// small magnitudes with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v == float64(int64(v)) && v < 1e12 && v > -1e12:
		return fmt.Sprintf("%d", int64(v))
	case v < 0.01 && v > -0.01:
		return fmt.Sprintf("%.2e", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// FormatBps renders a bytes/second figure with a binary-free unit.
func FormatBps(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f GB/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f MB/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2f KB/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0f B/s", bps)
	}
}
