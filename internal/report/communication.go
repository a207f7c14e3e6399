package report

import (
	"fmt"
	"io"
	"text/tabwriter"

	"wsinterop/internal/campaign"
)

// Communication writes the communication/execution extension summary
// (experiment E6 at scale — the paper's future work).
func Communication(w io.Writer, res *campaign.CommResult) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "server\tcombinations\tblocked\tno-operations\tfaults\tmismatches\tsucceeded\texchanges\tmsg-violations\tpath-collisions")
	write := func(s *campaign.CommSummary) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			s.Server, s.Combinations, s.Blocked, s.NoOperations,
			s.Faults, s.Mismatches, s.Succeeded, s.Exchanges, s.MessageViolations, s.PathCollisions)
	}
	for _, name := range res.ServerOrder {
		write(res.Servers[name])
	}
	totals := res.Totals()
	write(&totals)
	if err := tw.Flush(); err != nil {
		return err
	}

	// Per-client attribution of the blocked and silent combinations.
	if len(res.ClientOrder) > 0 {
		fmt.Fprintln(w)
		ct := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ct, "client\tblocked\tno-operations\tsucceeded")
		for _, name := range res.ClientOrder {
			c := res.Clients[name]
			fmt.Fprintf(ct, "%s\t%d\t%d\t%d\n", name, c.Blocked, c.NoOperations, c.Succeeded)
		}
		if err := ct.Flush(); err != nil {
			return err
		}
	}
	if totals.Combinations > 0 {
		pct := 100 * float64(totals.Succeeded) / float64(totals.Combinations)
		_, err := fmt.Fprintf(w,
			"combinations whose static steps passed complete the round trip; %.1f%% of all combinations succeed end to end\n", pct)
		return err
	}
	return nil
}

// commMarkdown writes the communication extension's Markdown section.
func commMarkdown(mw *markdownWriter, comm *campaign.CommResult) {
	mw.heading(3, comm.Axis().MarkdownTitle)
	mw.tableHeader([]string{"server", "combinations", "blocked", "no-operations",
		"faults", "mismatches", "succeeded", "msg-violations"})
	writeRow := func(s *campaign.CommSummary) {
		mw.tableRow([]string{s.Server,
			fmt.Sprintf("%d", s.Combinations), fmt.Sprintf("%d", s.Blocked),
			fmt.Sprintf("%d", s.NoOperations), fmt.Sprintf("%d", s.Faults),
			fmt.Sprintf("%d", s.Mismatches), fmt.Sprintf("%d", s.Succeeded),
			fmt.Sprintf("%d", s.MessageViolations)})
	}
	for _, name := range comm.ServerOrder {
		writeRow(comm.Servers[name])
	}
	totals := comm.Totals()
	writeRow(&totals)
}
