// Package report renders campaign results in the shapes the paper
// reports them: the Fig. 4 per-server step overview, the Table III
// client × server issue matrix, the §IV headline findings, and the
// service-filtering summary of the Preparation Phase.
package report

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"wsinterop/internal/campaign"
)

// Fig4 writes the per-server overview of warnings and errors at each
// Testing Phase step (the paper's Fig. 4).
func Fig4(w io.Writer, res *campaign.Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\t"+strings.Join(res.ServerOrder, "\t")+"\ttotal")
	rows := []struct {
		name string
		get  func(*campaign.ServerSummary) int
	}{
		{"services created", func(s *campaign.ServerSummary) int { return s.Created }},
		{"WSDL published", func(s *campaign.ServerSummary) int { return s.Deployed }},
		{"description warnings", func(s *campaign.ServerSummary) int { return s.DescriptionWarnings }},
		{"description errors", func(s *campaign.ServerSummary) int { return s.DescriptionErrors }},
		{"tests executed", func(s *campaign.ServerSummary) int { return s.Tests }},
		{"generation warnings", func(s *campaign.ServerSummary) int { return s.GenWarnings }},
		{"generation errors", func(s *campaign.ServerSummary) int { return s.GenErrors }},
		{"compilation warnings", func(s *campaign.ServerSummary) int { return s.CompileWarnings }},
		{"compilation errors", func(s *campaign.ServerSummary) int { return s.CompileErrors }},
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s", r.name)
		total := 0
		for _, name := range res.ServerOrder {
			v := r.get(res.Servers[name])
			total += v
			fmt.Fprintf(tw, "\t%d", v)
		}
		fmt.Fprintf(tw, "\t%d\n", total)
	}
	return tw.Flush()
}

// TableIII writes the detailed client × server issue matrix (the
// paper's Table III): per combination, generation warnings/errors and
// compilation warnings/errors.
func TableIII(w io.Writer, res *campaign.Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "client-side FW")
	for _, s := range res.ServerOrder {
		fmt.Fprintf(tw, "\t%s genW\tgenE\tcompW\tcompE", s)
	}
	fmt.Fprintln(tw)
	for _, c := range res.ClientOrder {
		fmt.Fprint(tw, c)
		for _, s := range res.ServerOrder {
			cell := res.Matrix[c][s]
			fmt.Fprintf(tw, "\t%d\t%d\t%d\t%d",
				cell.GenWarnings, cell.GenErrors, cell.CompileWarnings, cell.CompileErrors)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Findings writes the §IV headline statistics.
func Findings(w io.Writer, res *campaign.Result) error {
	genErrors, compErrors := 0, 0
	genWarnings, compWarnings := 0, 0
	for _, s := range res.Servers {
		genErrors += s.GenErrors
		compErrors += s.CompileErrors
		genWarnings += s.GenWarnings
		compWarnings += s.CompileWarnings
	}
	flaggedFailing := res.FlaggedServices - res.FlaggedCleanServices
	pct := 0.0
	if res.FlaggedServices > 0 {
		pct = 100 * float64(flaggedFailing) / float64(res.FlaggedServices)
	}
	lines := []string{
		fmt.Sprintf("services created:                   %d", res.TotalServices),
		fmt.Sprintf("service descriptions published:     %d", res.TotalPublished),
		fmt.Sprintf("services excluded (undeployable):   %d", res.TotalServices-res.TotalPublished),
		fmt.Sprintf("tests executed:                     %d", res.TotalTests),
		fmt.Sprintf("description-step warnings (WS-I):   %d", res.FlaggedServices),
		fmt.Sprintf("artifact generation warnings:       %d", genWarnings),
		fmt.Sprintf("artifact generation errors:         %d", genErrors),
		fmt.Sprintf("artifact compilation warnings:      %d", compWarnings),
		fmt.Sprintf("artifact compilation errors:        %d", compErrors),
		fmt.Sprintf("interoperability error situations:  %d", res.InteropErrors),
		fmt.Sprintf("same-framework error situations:    %d", res.SameFrameworkErrors),
		fmt.Sprintf("WS-I-flagged services failing on:   %d of %d (%.1f%%)", flaggedFailing, res.FlaggedServices, pct),
		fmt.Sprintf("WS-I-clean services still failing:  %d", res.UnflaggedFailingServices),
	}
	for _, ln := range lines {
		if _, err := fmt.Fprintln(w, ln); err != nil {
			return err
		}
	}
	return nil
}

// Dedup writes the structural-shape memoization statistics: how many
// distinct shapes the campaign saw and how much publish/WS-I/test
// work the memo layer absorbed.
func Dedup(w io.Writer, res *campaign.Result) error {
	d := res.Dedup
	if d == nil {
		return nil
	}
	rate := func(hits, total int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(hits) / float64(total)
	}
	classes := 0.0
	if d.Shapes > 0 {
		classes = float64(d.PublishTotal) / float64(d.Shapes)
	}
	lines := []string{
		fmt.Sprintf("distinct structural shapes:         %d", d.Shapes),
		fmt.Sprintf("classes per shape:                  %.2f", classes),
		fmt.Sprintf("publishes memoized:                 %d of %d (%.1f%%)", d.PublishMemoized, d.PublishTotal, rate(d.PublishMemoized, d.PublishTotal)),
		fmt.Sprintf("client tests memoized:              %d of %d (%.1f%%)", d.TestMemoized, d.TestTotal, rate(d.TestMemoized, d.TestTotal)),
		fmt.Sprintf("template fallbacks (per-class):     %d", d.Fallbacks),
		fmt.Sprintf("WS-I verdicts memoized:             %d of %d (%.1f%%)",
			d.WSIMemoized, d.WSIMemoized+d.WSIChecks, rate(d.WSIMemoized, d.WSIMemoized+d.WSIChecks)),
	}
	for _, ln := range lines {
		if _, err := fmt.Fprintln(w, ln); err != nil {
			return err
		}
	}
	return nil
}

// Profiles writes the per-profile compliance matrix: for every
// registered compliance profile, how many of each server's published
// descriptions satisfied it. The primary profile drives the campaign's
// Flagged/Compliant verdicts; the other registered profiles are
// evaluated alongside it on the same documents.
func Profiles(w io.Writer, res *campaign.Result) error {
	if len(res.Profiles) == 0 {
		_, err := fmt.Fprintln(w, "no compliance profiles registered")
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "profile")
	for _, s := range res.ServerOrder {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw, "\ttotal\tchecked")
	for _, pc := range res.Profiles {
		fmt.Fprintf(tw, "%s", pc.ID)
		for _, s := range res.ServerOrder {
			fmt.Fprintf(tw, "\t%d", pc.Compliant[s])
		}
		fmt.Fprintf(tw, "\t%d\t%d\n", pc.TotalCompliant, res.TotalPublished)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, pc := range res.Profiles {
		if _, err := fmt.Fprintf(w, "%s: %s\n", pc.ID, pc.Name); err != nil {
			return err
		}
	}
	return nil
}

// Plan writes the execution-plan summary (-report plan): how the
// planner partitions each server's catalog into shape groups, and how
// much of the campaign the clone broadcast will serve (DESIGN.md §12).
func Plan(w io.Writer, sum *campaign.PlanSummary) error {
	fmt.Fprintf(w, "plan fingerprint: %s (source: %s)\n", sum.Fingerprint, sum.Source)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "server\tclasses\tshapes\tclones\tunsafe\tloose")
	for _, s := range sum.Servers {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n",
			s.Server, s.Classes, s.Shapes, s.Clones, s.Unsafe, s.Loose)
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t%d\t%d\n",
		sum.Classes, sum.Shapes, sum.Clones, sum.Unsafe, sum.Loose)
	return tw.Flush()
}

// Deploy writes the Preparation Phase / description-step filtering
// summary (services created vs published per server).
func Deploy(w io.Writer, res *campaign.Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "server\tcreated\tpublished\texcluded")
	for _, name := range res.ServerOrder {
		s := res.Servers[name]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", name, s.Created, s.Deployed, s.Created-s.Deployed)
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\n",
		res.TotalServices, res.TotalPublished, res.TotalServices-res.TotalPublished)
	return tw.Flush()
}

// PaperComparison is one paper-vs-measured row of EXPERIMENTS.md.
type PaperComparison struct {
	Metric   string
	Paper    int
	Measured int
}

// Delta returns measured − paper.
func (p PaperComparison) Delta() int { return p.Measured - p.Paper }

// Comparisons assembles the paper-vs-measured table for the full
// campaign (paper values from DESIGN.md §3).
func Comparisons(res *campaign.Result) []PaperComparison {
	genW, genE, compW, compE := 0, 0, 0, 0
	for _, s := range res.Servers {
		genW += s.GenWarnings
		genE += s.GenErrors
		compW += s.CompileWarnings
		compE += s.CompileErrors
	}
	cmp := []PaperComparison{
		{"services created", 22024, res.TotalServices},
		{"service descriptions published", 7239, res.TotalPublished},
		{"tests executed", 79629, res.TotalTests},
		{"description-step warnings", 86, res.FlaggedServices},
		{"generation warnings", 4763, genW},
		{"generation errors", 287, genE},
		{"compilation warnings", 14478, compW},
		{"compilation errors", 1301, compE},
		{"same-framework error situations", 307, res.SameFrameworkErrors},
		{"interoperability error situations (paper text: 1583)", 1588, res.InteropErrors},
	}
	for _, name := range res.ServerOrder {
		s := res.Servers[name]
		paper := map[string][4]int{
			"Metro":       {2489, 13, 4978, 529},
			"JBossWS CXF": {2248, 21, 4496, 464},
			"WCF .NET":    {2502, 253, 5004, 308},
		}[name]
		cmp = append(cmp,
			PaperComparison{name + ": published WSDLs", paper[0], s.Deployed},
			PaperComparison{name + ": generation errors", paper[1], s.GenErrors},
			PaperComparison{name + ": compilation warnings", paper[2], s.CompileWarnings},
			PaperComparison{name + ": compilation errors", paper[3], s.CompileErrors},
		)
	}
	return cmp
}

// WriteComparisons renders the paper-vs-measured table.
func WriteComparisons(w io.Writer, cmp []PaperComparison) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tpaper\tmeasured\tdelta")
	for _, c := range cmp {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%+d\n", c.Metric, c.Paper, c.Measured, c.Delta())
	}
	return tw.Flush()
}
