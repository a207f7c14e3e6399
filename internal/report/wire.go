package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"wsinterop/internal/campaign"
)

// The wire-axis renderers. Every wire axis but the communication
// extension folds into a campaign.Matrix and renders through the
// matrix functions below, from the presentation its declaration
// carries. Comm keeps its own layout — one column, two per-server
// tallies, a client subset — and wireFormats is the one place that
// tells the two apart.

// Robustness writes the fault-injection extension summary: the
// (server × fault) matrix of robustness outcomes, the per-client
// attribution, and the wrong-success verdict line.
func Robustness(w io.Writer, res *campaign.RobustResult) error { return matrixText(w, res.Matrix) }

// Versions writes the hybrid-version interop matrix summary: the
// (server × scenario) matrix of version outcomes, the per-client
// attribution, and the swallowed-fault verdict line.
func Versions(w io.Writer, res *campaign.VersionResult) error { return matrixText(w, res.Matrix) }

// Wire writes one wire result's text report (a RunWire or Merge
// result).
func Wire(w io.Writer, res campaign.WireResult) error { return wireFormats(res).text(w) }

// wireFormat renders one wire result in each format.
type wireFormat struct {
	text     func(w io.Writer) error
	markdown func(mw *markdownWriter)
	// json returns the rows under the axis's JSON key.
	json func() []any
}

// wireFormats returns the renderers of a *campaign.CommResult or a
// *campaign.Matrix.
func wireFormats(res campaign.WireResult) wireFormat {
	if comm, ok := res.(*campaign.CommResult); ok {
		return wireFormat{
			text:     func(w io.Writer) error { return Communication(w, comm) },
			markdown: func(mw *markdownWriter) { commMarkdown(mw, comm) },
			json: func() []any {
				rows := make([]any, 0, len(comm.ServerOrder))
				for _, name := range comm.ServerOrder {
					rows = append(rows, *comm.Servers[name])
				}
				return rows
			},
		}
	}
	m := res.(*campaign.Matrix)
	return wireFormat{
		text:     func(w io.Writer) error { return matrixText(w, m) },
		markdown: func(mw *markdownWriter) { matrixMarkdown(mw, m) },
		json:     func() []any { return matrixJSON(m) },
	}
}

// matrixText writes a matrix axis's text report: the (server × column)
// table with a total row per column, the per-client table, the path
// collisions and the axis's verdict line.
func matrixText(w io.Writer, m *campaign.Matrix) error {
	ax := m.Axis()
	labels := strings.Join(ax.Labels, "\t")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "server\t%s\tcells\t%s\n", ax.Column, labels)
	matrixRows(m, func(server, column string, n []int) {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", server, column, strings.Join(counts(n), "\t"))
	})
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(m.ClientOrder) > 0 {
		fmt.Fprintln(w)
		ct := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(ct, "client\tcells\t%s\n", labels)
		for ci, name := range m.ClientOrder {
			fmt.Fprintf(ct, "%s\t%s\n", name, strings.Join(counts(m.Clients[ci]), "\t"))
		}
		if err := ct.Flush(); err != nil {
			return err
		}
	}

	if n := m.PathCollisions(); n > 0 {
		fmt.Fprintf(w, "%d endpoint path collisions resolved with deterministic suffixes\n", n)
	}
	_, err := fmt.Fprintln(w, ax.Verdict(m))
	return err
}

// matrixMarkdown writes a matrix axis's Markdown section: the
// (server × column) table with its total rows, and the verdict line.
func matrixMarkdown(mw *markdownWriter, m *campaign.Matrix) {
	ax := m.Axis()
	mw.heading(3, ax.MarkdownTitle)
	mw.tableHeader(append([]string{"server", ax.Column, "cells"}, ax.Labels...))
	matrixRows(m, func(server, column string, n []int) {
		mw.tableRow(append([]string{server, column}, counts(n)...))
	})
	mw.printf("\n%s\n", ax.MarkdownVerdict(m))
}

// matrixJSON returns a matrix axis's JSON rows: one per (server ×
// column), keyed by the axis's names.
func matrixJSON(m *campaign.Matrix) []any {
	ax := m.Axis()
	var rows []any
	for si, server := range m.ServerOrder {
		for col, column := range m.Columns {
			n := m.Cells[si][col]
			row := object{{"server", server}, {ax.Column, column}, {"cells", cells(n)}}
			for o, key := range ax.JSONKeys {
				row = append(row, member{key, n[o]})
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// matrixRows calls row for every (server × column) histogram, then for
// each column's total across servers.
func matrixRows(m *campaign.Matrix, row func(server, column string, n []int)) {
	for si, server := range m.ServerOrder {
		for col, column := range m.Columns {
			row(server, column, m.Cells[si][col])
		}
	}
	for col, n := range m.ColumnTotals() {
		row("total", m.Columns[col], n)
	}
}

// counts formats a histogram as its cell count, then its outcome
// counts in code order.
func counts(n []int) []string {
	out := []string{strconv.Itoa(cells(n))}
	for _, v := range n {
		out = append(out, strconv.Itoa(v))
	}
	return out
}

// cells is a histogram's cell count.
func cells(n []int) int {
	c := 0
	for _, v := range n {
		c += v
	}
	return c
}
