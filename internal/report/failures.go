package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"wsinterop/internal/campaign"
)

// FailureGroup is one footnote-style entry: a parameter class on one
// server, with the clients it broke and at which step.
type FailureGroup struct {
	Server string
	Class  string
	// GenClients and CompileClients list client frameworks whose
	// generation / compilation step errored, sorted.
	GenClients     []string
	CompileClients []string
}

// GroupFailures builds the footnote index from retained failures
// (requires campaign.WithKeepFailures). Groups are ordered by
// server, then by descending client impact, then class name — so the
// classes that break the most clients (the paper's a–h narratives)
// lead the listing.
func GroupFailures(res *campaign.Result) []FailureGroup {
	type key struct{ server, class string }
	idx := make(map[key]*FailureGroup)
	for i := range res.Failures {
		f := &res.Failures[i]
		k := key{f.Server, f.Class}
		g, ok := idx[k]
		if !ok {
			g = &FailureGroup{Server: f.Server, Class: f.Class}
			idx[k] = g
		}
		if f.Gen.Error {
			g.GenClients = append(g.GenClients, f.Client)
		}
		if f.Compile.Error {
			g.CompileClients = append(g.CompileClients, f.Client)
		}
	}
	groups := make([]FailureGroup, 0, len(idx))
	for _, g := range idx {
		sort.Strings(g.GenClients)
		sort.Strings(g.CompileClients)
		groups = append(groups, *g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Server != groups[j].Server {
			return groups[i].Server < groups[j].Server
		}
		li := len(groups[i].GenClients) + len(groups[i].CompileClients)
		lj := len(groups[j].GenClients) + len(groups[j].CompileClients)
		if li != lj {
			return li > lj
		}
		return groups[i].Class < groups[j].Class
	})
	return groups
}

// Failures writes the footnote index. maxPerServer caps the listing
// per server (0 = unlimited); at full scale the WCF column alone has
// hundreds of throwaway entries, so the CLI uses a cap.
func Failures(w io.Writer, res *campaign.Result, maxPerServer int) error {
	groups := GroupFailures(res)
	if len(groups) == 0 {
		_, err := fmt.Fprintln(w, "no failures retained (run with KeepFailures)")
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "server\tparameter class\tgeneration errors\tcompilation errors")
	perServer := make(map[string]int, 4)
	elided := make(map[string]int, 4)
	for _, g := range groups {
		perServer[g.Server]++
		if maxPerServer > 0 && perServer[g.Server] > maxPerServer {
			elided[g.Server]++
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n",
			g.Server, g.Class, joinOrDash(g.GenClients), joinOrDash(g.CompileClients))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	servers := make([]string, 0, len(elided))
	for s := range elided {
		servers = append(servers, s)
	}
	sort.Strings(servers)
	for _, s := range servers {
		if _, err := fmt.Fprintf(w, "... %d more classes on %s elided\n", elided[s], s); err != nil {
			return err
		}
	}
	return nil
}

func joinOrDash(names []string) string {
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, ", ")
}
