// Command interop runs the web service framework interoperability
// assessment campaign and prints the paper's tables and figures.
//
// Usage:
//
//	interop [-report fig4|chart|table3|findings|deploy|failures|dedup|profiles|maturity|compare|comm|robust|versions|plan|metrics|json|markdown|all]
//	        [-limit N] [-workers N] [-server NAME] [-client NAME] [-wsi-profile NAME]
//	        [-faults] [-versions]
//	        [-cpuprofile FILE] [-metrics-json FILE] [-debug ADDR]
//	        [-checkpoint DIR] [-resume]
//	        [-shard I/N] [-merge DIR,DIR,...] [-serve ADDR]
//
// With no flags it runs the full campaign (22 024 services, 79 629
// tests) and prints every textual report. -report comm additionally
// runs the communication/execution extension; -report robust runs the
// fault-injection robustness matrix and -report versions the SOAP
// 1.1/1.2/hybrid version interop matrix (DESIGN.md §14). -faults and
// -versions run their matrix beside any -report and add its section to
// what it prints. -report json emits a machine-readable dump of
// everything.
//
// Durability: -checkpoint DIR journals every completed cell to DIR as
// the campaign runs; SIGINT/SIGTERM then drain in-flight work, flush
// the journal, and exit with resumable state, and a second invocation
// with -checkpoint DIR -resume replays the journaled cells and
// finishes the rest — producing output identical to an uninterrupted
// run (DESIGN.md §9).
//
// Planning: every mode executes shape-first from a plan built up front
// (DESIGN.md §12); -report plan prints the plan without running
// anything.
//
// Distribution: -shard I/N runs one deterministic slice of the
// campaign, whole shape groups and loose classes — N worker processes,
// each with its own -checkpoint DIR, cover every cell exactly once —
// and -merge DIR,DIR,... replays the union of the completed shard
// journals into one report identical to a single-process run
// (DESIGN.md §11). Every journaled mode merges: the
// static study, and the comm, robust (-faults) and versions matrices
// when every shard ran them; the merge executes nothing. -serve ADDR runs the command as
// a long-lived campaign daemon instead: POST /campaigns streams a
// campaign's progress as NDJSON, POST /services publishes a class's
// WSDL over real TCP, and the debug endpoint is mounted at /debug/.
//
// Observability: -report metrics prints the runner's stage-scoped
// counters and latency histograms as text; -metrics-json FILE exports
// the same snapshot as JSON (composable with any -report, and written
// on failure too, marked "partial"); -debug ADDR serves a live debug
// endpoint for the duration of the run — /debug/metrics (JSON
// snapshot), /debug/events (campaign event stream), /debug/vars
// (expvar) and /debug/pprof/*.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wsinterop/internal/campaign"
	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/report"
	"wsinterop/internal/wsi"
)

// validReports are the accepted -report modes, alphabetically, for
// up-front validation and the error message: the static reports, the
// dumps and one mode per wire axis.
var validReports = func() []string {
	modes := []string{"all", "chart", "compare", "dedup", "deploy", "failures", "fig4", "findings",
		"json", "markdown", "maturity", "metrics", "plan", "profiles", "table3"}
	for _, ax := range campaign.WireAxes() {
		modes = append(modes, ax.Name())
	}
	slices.Sort(modes)
	return modes
}()

// Test hooks for -serve: serveListening (when set) receives the bound
// base URL once the daemon accepts connections, and closing serveStop
// shuts the daemon down as if it had been signalled.
var (
	serveListening func(url string)
	serveStop      chan struct{}
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "interop:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("interop", flag.ContinueOnError)
	reportKind := fs.String("report", "all",
		"report to print: "+strings.Join(validReports, ", "))
	axisFlags := make(map[*campaign.Axis]*bool)
	for _, ax := range campaign.WireAxes() {
		if ax.Flag != "" {
			axisFlags[ax] = fs.Bool(ax.Flag, false, ax.Usage)
		}
	}
	explainClass := fs.String("explain", "",
		"print the drill-down narrative for one class (combine with -server to restrict)")
	extended := fs.Bool("extended", false,
		"widen the setup with the Apache Axis2 server-side model (paper future work)")
	limit := fs.Int("limit", 0, "cap services per catalog (0 = all)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	serverName := fs.String("server", "", "restrict to one server framework (substring match)")
	clientName := fs.String("client", "", "restrict to one client framework (substring match)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	metricsJSON := fs.String("metrics-json", "", "write the observability metrics snapshot as JSON to this file (marked partial if the run failed)")
	debugAddr := fs.String("debug", "",
		"serve the live debug endpoint (/debug/metrics, /debug/events, /debug/vars, /debug/pprof) on this address for the duration of the run")
	checkpoint := fs.String("checkpoint", "",
		"journal every completed cell to this directory so an interrupted run can be continued with -resume")
	resume := fs.Bool("resume", false,
		"replay the cells journaled under -checkpoint DIR instead of re-executing them, then finish the rest")
	shard := fs.String("shard", "",
		"run one deterministic slice INDEX/COUNT of the campaign: the plan items (whole shape groups, then loose classes) numbered INDEX modulo COUNT; combine with -checkpoint so the shard can be merged later (DESIGN.md §11)")
	merge := fs.String("merge", "",
		"merge completed shard journals (comma-separated checkpoint directories; positional arguments are appended) into one report; "+
			"serves the study and, when every shard ran them, the comm, robust and versions reports without executing anything")
	serveAddr := fs.String("serve", "",
		"run as a long-lived campaign daemon on this address: POST /campaigns (NDJSON progress stream), POST /services (publish a WSDL over TCP), /debug/*")
	progress := fs.Bool("progress", false,
		"print per-server progress lines and the WS-I memoized-vs-executed summary to stderr")
	wsiProfile := fs.String("wsi-profile", "",
		"compliance profile driving the campaign's WS-I verdicts (default bp11; see wsicheck -profiles)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate the report mode before any campaign work runs, so a typo
	// fails fast with the valid modes listed instead of silently
	// executing the whole campaign first.
	if !slices.Contains(validReports, *reportKind) {
		return fmt.Errorf("unknown report %q (valid modes: %s)", *reportKind, strings.Join(validReports, ", "))
	}
	// Negative counts are refused like the daemon refuses them: a
	// negative -limit would otherwise run the full campaign under a
	// fingerprint no -limit 0 journal matches.
	if *limit < 0 {
		return fmt.Errorf("-limit wants a class count >= 0 (0 = all), got %d", *limit)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers wants a pool size >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint DIR")
	}
	if *serveAddr != "" {
		for flagName, set := range map[string]bool{
			"-merge": *merge != "", "-shard": *shard != "",
			"-checkpoint": *checkpoint != "", "-resume": *resume,
			"-explain": *explainClass != "",
		} {
			if set {
				return fmt.Errorf("-serve runs a daemon; it cannot be combined with %s", flagName)
			}
		}
	}
	var mergeDirs []string
	if *merge != "" {
		for _, dir := range strings.Split(*merge, ",") {
			if dir = strings.TrimSpace(dir); dir != "" {
				mergeDirs = append(mergeDirs, dir)
			}
		}
		mergeDirs = append(mergeDirs, fs.Args()...)
		for flagName, set := range map[string]bool{
			"-shard": *shard != "", "-checkpoint": *checkpoint != "",
			"-resume": *resume, "-explain": *explainClass != "",
		} {
			if set {
				return fmt.Errorf("-merge reads completed shard journals; it cannot be combined with %s", flagName)
			}
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := []campaign.Option{
		campaign.WithLimit(*limit), campaign.WithWorkers(*workers),
	}
	if *wsiProfile != "" {
		p, ok := wsi.Lookup(*wsiProfile)
		if !ok {
			return fmt.Errorf("unknown WS-I profile %q (registered: %s)",
				*wsiProfile, strings.Join(wsi.ProfileIDs(), ", "))
		}
		opts = append(opts, campaign.WithChecker(wsi.NewChecker(wsi.WithProfile(p))))
	}
	if *checkpoint != "" {
		opts = append(opts, campaign.WithCheckpoint(*checkpoint))
	}
	if *resume {
		opts = append(opts, campaign.WithResume())
	}
	if *shard != "" {
		spec, err := parseShard(*shard)
		if err != nil {
			return err
		}
		opts = append(opts, campaign.WithShard(spec))
	}
	if *progress {
		opts = append(opts, campaign.WithProgress(func(stage string, done, total int) {
			fmt.Fprintf(os.Stderr, "interop: %-12s %d/%d services\r", stage, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	servers := framework.Servers()
	if *extended {
		servers = append(servers, framework.NewAxis2Server())
		opts = append(opts, campaign.WithServers(servers...))
	}
	if *serverName != "" {
		servers = campaign.MatchRoster(servers, *serverName)
		if len(servers) == 0 {
			return fmt.Errorf("no server framework matches %q", *serverName)
		}
		opts = append(opts, campaign.WithServers(servers...))
	}
	if *clientName != "" {
		clients := campaign.MatchRoster(framework.Clients(), *clientName)
		if len(clients) == 0 {
			return fmt.Errorf("no client framework matches %q", *clientName)
		}
		opts = append(opts, campaign.WithClients(clients...))
	}
	if *reportKind == "failures" || *reportKind == "json" || *reportKind == "all" {
		opts = append(opts, campaign.WithKeepFailures())
	}

	if *serveAddr != "" {
		return runServe(*serveAddr, opts)
	}

	runner := campaign.New(opts...)

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		obs.PublishExpvar(runner.Obs())
		// Hardened like transport.Host.Start: a client that stalls mid
		// request header cannot pin a connection forever, and shutdown is
		// graceful — in-flight metric scrapes drain within the grace
		// window instead of being aborted by Close.
		srv := &http.Server{
			Handler:           debugMux(runner.Obs()),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() { _ = srv.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				_ = srv.Close()
			}
		}()
		fmt.Fprintf(os.Stderr, "interop: debug endpoint on http://%s/debug/metrics\n", ln.Addr())
	}

	// finish runs after the selected reports — the snapshot then covers
	// the static campaign plus any extension that ran. It writes on
	// failure too: a partial snapshot is most useful exactly when a run
	// died, so a run error annotates the export ("partial") rather than
	// suppressing it.
	finish := func(runErr error) error {
		if *checkpoint != "" && errors.Is(runErr, context.Canceled) {
			// Every journaled mode (the static campaign and each wire
			// axis) resumes from the cells it flushed.
			runErr = fmt.Errorf("interrupted — journal flushed to %s; rerun with -checkpoint %s -resume to continue",
				*checkpoint, *checkpoint)
		}
		if *metricsJSON == "" {
			return runErr
		}
		f, err := os.Create(*metricsJSON)
		if err != nil {
			return errors.Join(runErr, fmt.Errorf("metrics-json: %w", err))
		}
		snap := runner.Metrics()
		snap.Partial = runErr != nil
		werr := report.MetricsJSON(f, snap)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			werr = fmt.Errorf("metrics-json: %w", werr)
		}
		return errors.Join(runErr, werr)
	}

	if *explainClass != "" {
		return finish(explain(out, runner, servers, *explainClass))
	}

	if *reportKind == "plan" {
		// -report plan builds the execution plan and describes it
		// without running any campaign work.
		sum, err := runner.PlanSummary()
		if err != nil {
			return finish(err)
		}
		return finish(report.Plan(out, sum))
	}

	// With a checkpoint configured, SIGINT/SIGTERM cancel the campaign
	// context: in-flight workers drain, the journal flushes, and the
	// command exits non-zero with resumable state. A second signal after
	// the drain started kills the process the default way.
	ctx := context.Background()
	if *checkpoint != "" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		go func() {
			<-ctx.Done()
			stop()
		}()
	}
	// A wire axis runs under its own -report mode, under its flag beside
	// any report, and in the dumps it declares.
	dump := *reportKind == "json" || *reportKind == "markdown"
	var (
		res    *campaign.Result
		merged *campaign.Merged
		wire   []campaign.WireResult
		err    error
	)
	if len(mergeDirs) > 0 {
		// Every requested mode is folded from the shards' journals; the
		// coordinator executes nothing.
		if merged, err = runner.Merge(ctx, mergeDirs); err != nil {
			return finish(err)
		}
		res = merged.Study
	} else if res, err = runner.Run(ctx); err != nil {
		return finish(err)
	}
	absent := func(mode string) error {
		return fmt.Errorf("-merge: no %s journal in %s — run the shards with that mode first",
			mode, strings.Join(mergeDirs, ", "))
	}
	if res == nil {
		return finish(absent("study"))
	}
	for _, ax := range campaign.WireAxes() {
		flagged := axisFlags[ax] != nil && *axisFlags[ax]
		if *reportKind != ax.Name() && !flagged && !(dump && ax.Dumped) {
			continue
		}
		var wr campaign.WireResult
		if merged != nil {
			if wr = merged.Wire[ax.Name()]; wr == nil {
				return finish(absent(ax.Name()))
			}
		} else if wr, err = runner.RunWire(ctx, ax); err != nil {
			return finish(err)
		}
		wire = append(wire, wr)
	}
	if *progress && res.Dedup != nil {
		d := res.Dedup
		fmt.Fprintf(os.Stderr, "interop: WS-I verdicts: %d executed, %d memoized from shapes\n",
			d.WSIChecks, d.WSIMemoized)
	}
	switch *reportKind {
	case "json":
		return finish(report.JSON(out, res, wire...))
	case "markdown":
		return finish(report.Markdown(out, res, wire...))
	}

	// A section prints when -report selects it, or when it reports a
	// wire axis that ran.
	type section struct {
		name, title string
		ran         bool
		write       func() error
	}
	sections := []section{
		{"deploy", "Service description generation (Preparation + Step 1)", false, func() error { return report.Deploy(out, res) }},
		{"fig4", "Fig. 4 — per-server step overview", false, func() error { return report.Fig4(out, res) }},
		{"chart", "Fig. 4 — bar chart", false, func() error { return report.Fig4Chart(out, res) }},
		{"table3", "Table III — client × server issue matrix", false, func() error { return report.TableIII(out, res) }},
		{"failures", "Failure index (Table III footnotes)", false, func() error { return report.Failures(out, res, 12) }},
		{"findings", "Main findings (§IV)", false, func() error { return report.Findings(out, res) }},
		{"dedup", "Shape memoization statistics", false, func() error { return report.Dedup(out, res) }},
		{"profiles", "Compliance-profile matrix", false, func() error { return report.Profiles(out, res) }},
		{"maturity", "Client tool maturity (§IV.A)", false, func() error { return report.Maturity(out, res) }},
		{"compare", "Paper vs measured", false, func() error {
			return report.WriteComparisons(out, report.Comparisons(res))
		}},
	}
	for _, wr := range wire {
		ax := wr.Axis()
		sections = append(sections, section{ax.Name(), ax.Title, true, func() error { return report.Wire(out, wr) }})
	}
	sections = append(sections, section{"metrics", "Observability metrics (stage counters & latency histograms)", false, func() error {
		// The runner's cumulative registry, so the wire axes that ran
		// above are included.
		return report.Metrics(out, runner.Metrics())
	}})
	printed := false
	for _, s := range sections {
		if !s.ran && *reportKind != "all" && *reportKind != s.name {
			continue
		}
		printed = true
		fmt.Fprintf(out, "== %s ==\n", s.title)
		if err := s.write(); err != nil {
			return finish(err)
		}
		fmt.Fprintln(out)
	}
	if !printed {
		// Unreachable: -report is validated up front. Kept as a guard for
		// future section renames.
		return fmt.Errorf("unknown report %q (valid modes: %s)", *reportKind, strings.Join(validReports, ", "))
	}
	return finish(nil)
}

// parseShard parses the -shard argument, INDEX/COUNT. A count below 1
// is refused here: the zero spec would silently run unsharded.
func parseShard(s string) (campaign.ShardSpec, error) {
	var spec campaign.ShardSpec
	is, ns, ok := strings.Cut(s, "/")
	var err error
	if ok {
		spec.Index, err = strconv.Atoi(strings.TrimSpace(is))
		if err == nil {
			spec.Count, err = strconv.Atoi(strings.TrimSpace(ns))
		}
	}
	if !ok || err != nil || spec.Count < 1 {
		return campaign.ShardSpec{}, fmt.Errorf("-shard wants INDEX/COUNT with COUNT >= 1 (e.g. 0/4), got %q", s)
	}
	return spec, nil
}

// runServe runs the campaign daemon until SIGINT/SIGTERM, then shuts
// it down gracefully: running campaigns are cancelled cooperatively
// and their NDJSON streams end with an error line before the listener
// closes.
func runServe(addr string, baseOpts []campaign.Option) error {
	reg := obs.NewRegistry()
	obs.PublishExpvar(reg)
	d := campaign.NewDaemon(reg, baseOpts...)
	root := http.NewServeMux()
	root.Handle("/", d.Handler())
	root.Handle("/debug/", debugMux(reg))
	url, err := d.Start(addr, root)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "interop: campaign daemon on %s — POST %s/campaigns, debug on %s/debug/metrics\n",
		url, url, url)
	if serveListening != nil {
		serveListening(url)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case <-serveStop:
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return d.Shutdown(sctx)
}

// debugMux builds the live debug endpoint: the obs snapshot and event
// stream as JSON, expvar, and the pprof handlers (registered on a
// private mux so the command never touches http.DefaultServeMux).
func debugMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Events())
	})
	return mux
}

// explain prints the §IV.B-style drill-down for one class on every
// configured (or matching) server framework.
func explain(out io.Writer, runner *campaign.Runner, servers []framework.ServerFramework, class string) error {
	found := false
	for _, s := range servers {
		e, err := runner.Explain(s.Name(), class)
		if err != nil {
			continue // class not in this server's catalog
		}
		found = true
		if err := report.Explain(out, e); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if !found {
		return fmt.Errorf("class %q is not in any configured catalog", class)
	}
	return nil
}
