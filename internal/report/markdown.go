package report

import (
	"fmt"
	"io"
	"strings"

	"wsinterop/internal/campaign"
)

// Markdown renders the complete campaign result and the wire results
// (RunWire or Merge results, in report order) as GitHub-flavoured
// markdown — the format used by EXPERIMENTS.md, so CI runs can
// regenerate the record verbatim (`cmd/interop -report markdown`).
func Markdown(w io.Writer, res *campaign.Result, wire ...campaign.WireResult) error {
	mw := &markdownWriter{w: w}

	mw.heading(2, "Campaign result")
	mw.printf("Services created: %d · published: %d · tests executed: %d\n\n",
		res.TotalServices, res.TotalPublished, res.TotalTests)
	mw.printf("Interoperability error situations: %d · same-framework: %d · WS-I-flagged services: %d (%d clean everywhere)\n",
		res.InteropErrors, res.SameFrameworkErrors, res.FlaggedServices, res.FlaggedCleanServices)

	mw.heading(3, "Per-server overview (Fig. 4)")
	header := append([]string{"metric"}, res.ServerOrder...)
	mw.tableHeader(append(header, "total"))
	rows := []struct {
		name string
		get  func(*campaign.ServerSummary) int
	}{
		{"services created", func(s *campaign.ServerSummary) int { return s.Created }},
		{"WSDL published", func(s *campaign.ServerSummary) int { return s.Deployed }},
		{"description warnings", func(s *campaign.ServerSummary) int { return s.DescriptionWarnings }},
		{"generation warnings", func(s *campaign.ServerSummary) int { return s.GenWarnings }},
		{"generation errors", func(s *campaign.ServerSummary) int { return s.GenErrors }},
		{"compilation warnings", func(s *campaign.ServerSummary) int { return s.CompileWarnings }},
		{"compilation errors", func(s *campaign.ServerSummary) int { return s.CompileErrors }},
	}
	for _, r := range rows {
		cells := []string{r.name}
		total := 0
		for _, name := range res.ServerOrder {
			v := r.get(res.Servers[name])
			total += v
			cells = append(cells, fmt.Sprintf("%d", v))
		}
		mw.tableRow(append(cells, fmt.Sprintf("%d", total)))
	}

	mw.heading(3, "Client × server matrix (Table III)")
	head := []string{"client"}
	for _, s := range res.ServerOrder {
		head = append(head, s+" genW/genE/compW/compE")
	}
	mw.tableHeader(head)
	for _, c := range res.ClientOrder {
		cells := []string{c}
		for _, s := range res.ServerOrder {
			cell := res.Matrix[c][s]
			cells = append(cells, fmt.Sprintf("%d / %d / %d / %d",
				cell.GenWarnings, cell.GenErrors, cell.CompileWarnings, cell.CompileErrors))
		}
		mw.tableRow(cells)
	}

	mw.heading(3, "Client tool maturity (§IV.A)")
	mw.tableHeader([]string{"client", "genE", "compW", "compE", "err flagged", "err clean", "verdict"})
	for _, name := range res.ClientOrder {
		c := res.Clients[name]
		mw.tableRow([]string{name,
			fmt.Sprintf("%d", c.GenErrors), fmt.Sprintf("%d", c.CompileWarnings),
			fmt.Sprintf("%d", c.CompileErrors), fmt.Sprintf("%d", c.ErrorsOnFlagged),
			fmt.Sprintf("%d", c.ErrorsOnClean), verdict(c)})
	}

	if len(res.Profiles) > 0 {
		mw.heading(3, "Compliance profiles")
		head := append([]string{"profile"}, res.ServerOrder...)
		mw.tableHeader(append(head, "total", "checked"))
		for _, pc := range res.Profiles {
			cells := []string{pc.ID}
			for _, s := range res.ServerOrder {
				cells = append(cells, fmt.Sprintf("%d", pc.Compliant[s]))
			}
			mw.tableRow(append(cells,
				fmt.Sprintf("%d", pc.TotalCompliant), fmt.Sprintf("%d", res.TotalPublished)))
		}
		for _, pc := range res.Profiles {
			mw.printf("\n`%s`: %s", pc.ID, pc.Name)
		}
		mw.printf("\n")
	}

	mw.heading(3, "Paper vs measured")
	mw.tableHeader([]string{"metric", "paper", "measured", "Δ"})
	for _, c := range Comparisons(res) {
		mw.tableRow([]string{c.Metric,
			fmt.Sprintf("%d", c.Paper), fmt.Sprintf("%d", c.Measured),
			fmt.Sprintf("%+d", c.Delta())})
	}

	for _, wr := range wire {
		wireFormats(wr).markdown(mw)
	}
	return mw.err
}

// markdownWriter accumulates the first write error, keeping the
// rendering code linear.
type markdownWriter struct {
	w   io.Writer
	err error
}

func (m *markdownWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

func (m *markdownWriter) heading(level int, text string) {
	m.printf("\n%s %s\n\n", strings.Repeat("#", level), text)
}

func (m *markdownWriter) tableHeader(cells []string) {
	m.tableRow(cells)
	seps := make([]string, len(cells))
	for i := range seps {
		seps[i] = "---"
	}
	m.tableRow(seps)
}

func (m *markdownWriter) tableRow(cells []string) {
	m.printf("| %s |\n", strings.Join(cells, " | "))
}
