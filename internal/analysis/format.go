package analysis

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file holds the table renderers shared by cycsim -artefact and the
// sweep writers: FormatTable produces aligned plain text for terminals,
// MarkdownTable produces a pipe table for documents. Both right-align
// columns whose body cells are all numeric, so magnitude comparisons line
// up the way the paper's tables print them.

// FormatTable renders a header and rows as aligned plain-text lines.
// Columns are sized to their widest cell; a column whose every non-empty
// body cell parses as a number is right-aligned. Short rows are padded
// with empty cells.
func FormatTable(header []string, rows [][]string) []string {
	widths, numeric := tableShape(header, rows)
	out := make([]string, 0, len(rows)+1)
	join := func(cells []string) string {
		return strings.TrimRight(strings.Join(cells, "  "), " ")
	}
	out = append(out, join(padRow(header, widths, make([]bool, len(widths)))))
	for _, row := range rows {
		out = append(out, join(padRow(row, widths, numeric)))
	}
	return out
}

// MarkdownTable renders a header and rows as a GitHub-flavoured markdown
// pipe table, with the same numeric right-alignment rule as FormatTable
// (expressed via the delimiter row, e.g. "---:").
func MarkdownTable(header []string, rows [][]string) []string {
	widths, numeric := tableShape(header, rows)
	for i := range widths {
		widths[i] = max(widths[i], 3) // cover the delimiter row's minimum
	}
	out := make([]string, 0, len(rows)+2)
	join := func(cells []string) string {
		return "| " + strings.Join(cells, " | ") + " |"
	}
	out = append(out, join(padRow(header, widths, make([]bool, len(widths)))))
	delims := make([]string, len(widths))
	for i, w := range widths {
		if numeric[i] {
			delims[i] = strings.Repeat("-", w-1) + ":"
		} else {
			delims[i] = strings.Repeat("-", w)
		}
	}
	out = append(out, join(delims))
	for _, row := range rows {
		out = append(out, join(padRow(row, widths, numeric)))
	}
	return out
}

// tableShape computes per-column widths and numeric-ness over the header
// and body.
func tableShape(header []string, rows [][]string) (widths []int, numeric []bool) {
	cols := len(header)
	for _, row := range rows {
		cols = max(cols, len(row))
	}
	widths = make([]int, cols)
	numeric = make([]bool, cols)
	for i := range numeric {
		numeric[i] = true
	}
	measure := func(row []string, body bool) {
		for i, cell := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			if body && cell != "" {
				if _, err := strconv.ParseFloat(cell, 64); err != nil {
					numeric[i] = false
				}
			}
		}
	}
	measure(header, false)
	seen := make([]bool, cols)
	for _, row := range rows {
		measure(row, true)
		for i := range row {
			if row[i] != "" {
				seen[i] = true
			}
		}
	}
	for i := range numeric {
		numeric[i] = numeric[i] && seen[i] // an all-empty column is textual
	}
	return widths, numeric
}

func padRow(row []string, widths []int, rightAlign []bool) []string {
	cells := make([]string, len(widths))
	for i, w := range widths {
		cell := ""
		if i < len(row) {
			cell = row[i]
		}
		pad := strings.Repeat(" ", w-utf8.RuneCountInString(cell))
		if rightAlign[i] {
			cells[i] = pad + cell
		} else {
			cells[i] = cell + pad
		}
	}
	return cells
}
