// Package campaign implements the paper's interoperability assessment
// approach — the primary contribution of the reproduction.
//
// The approach has two phases (§III):
//
//	Preparation Phase
//	  a) select server frameworks     b) select client frameworks
//	  c) create test services (one echo service per native class)
//
//	Testing Phase
//	  a) service description generation  (+ WS-I compliance check)
//	  b) client artifact generation
//	  c) client artifact compilation / instantiation
//	  d) results classification, interleaved with a–c
//
// The campaign runner executes every (published service × client
// framework) combination — 7 239 × 11 = 79 629 tests at full scale —
// classifying each step's outcome into errors (no usable output) and
// warnings (output produced, but the tool reported an issue). Errors
// are disruptive: a step that fails stops the pipeline for that test.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wsinterop/internal/artifact"
	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
)

// Step identifies one of the three tested inter-operation steps.
type Step int

// Testing Phase steps.
const (
	StepDescription Step = iota + 1
	StepGeneration
	StepCompilation
)

// String implements fmt.Stringer.
func (s Step) String() string {
	switch s {
	case StepDescription:
		return "service description generation"
	case StepGeneration:
		return "client artifact generation"
	case StepCompilation:
		return "client artifact compilation"
	default:
		return fmt.Sprintf("Step(%d)", int(s))
	}
}

// Outcome classifies one step of one test: whether the tool reported
// at least one warning and whether it reported at least one error.
// The paper counts tests-with-warnings and tests-with-errors, not
// individual messages.
type Outcome struct {
	Warning bool
	Error   bool
}

// merge folds tool issues into the outcome.
func (o *Outcome) mergeIssues(issues []framework.Issue) {
	for _, i := range issues {
		switch {
		case i.Severity >= artifact.SeverityError:
			o.Error = true
		case i.Severity == artifact.SeverityWarning:
			o.Warning = true
		}
	}
}

func (o *Outcome) mergeDiagnostics(diags []artifact.Diagnostic) {
	for _, d := range diags {
		switch {
		case d.Severity >= artifact.SeverityError:
			o.Error = true
		case d.Severity == artifact.SeverityWarning:
			o.Warning = true
		}
	}
}

// PublishedService is one service that survived the description step:
// its WSDL exists and is ready for client-side testing.
type PublishedService struct {
	Server string
	// Class is the parameter class's fully qualified name.
	Class string
	// Doc is the serialized WSDL as clients will consume it. Publish
	// always fills it. Inside Run the bytes are rendered only where
	// something reads them, so a solo shape's representative carries
	// none until a Publish on the same runner asks (DESIGN.md §6.6).
	Doc []byte
	// Flagged reports whether the compliance check raised any finding
	// (profile violation or extended finding) — the paper's
	// description-step "warning".
	Flagged bool
	// Compliant reports WS-I (official profile) compliance.
	Compliant bool
	// Profiles is the per-profile verdict row: bit i is set when the
	// document satisfies the i-th registered compliance profile
	// (wsi.Profiles() roster order). It feeds the campaign's
	// per-profile compliance matrix.
	Profiles uint64

	// analysis is the lazily computed shared document analysis
	// (generationFor); the cell pointer (not the cell) is copied with
	// the service, so every copy shares one memoized parse. Nil for memo
	// clones, which test through their shape's representative, and for
	// services constructed outside the runner — those analyze per call.
	analysis *sharedAnalysis
	// memo is the service's verified structural-shape entry; same-shape
	// services share one and serve their client tests from it. Nil when
	// the memo layer is off, the class failed the shape.Memoizable
	// guard, or the shape failed template verification.
	memo *shapeEntry
}

// sharedAnalysis memoizes the parsed analysis of one published
// document so all clients testing a service share a single
// wsdl.Unmarshal + analyze pass instead of re-doing it once per
// client.
type sharedAnalysis struct {
	once sync.Once
	a    *framework.Analysis
	err  error
}

// TestResult is the classified outcome of one (service × client)
// test.
type TestResult struct {
	Server  string
	Client  string
	Class   string
	Gen     Outcome
	Compile Outcome
	// CompileRan reports whether the third step executed (it is
	// skipped when generation produced no artifacts).
	CompileRan bool
}

// Cell aggregates the (client × server) combination for Table III.
type Cell struct {
	Tests           int
	GenWarnings     int
	GenErrors       int
	CompileWarnings int
	CompileErrors   int
}

// ClientSummary aggregates one client framework across every server —
// the data behind the paper's §IV.A maturity discussion.
type ClientSummary struct {
	Tests           int
	GenWarnings     int
	GenErrors       int
	CompileWarnings int
	CompileErrors   int
	// ErrorsOnFlagged counts errored tests whose service had been
	// flagged by the description-step compliance check;
	// ErrorsOnClean counts errored tests against unflagged services.
	// The paper observes that mature tools "fail almost only in
	// presence of non WS-I compliant WSDL documents".
	ErrorsOnFlagged int
	ErrorsOnClean   int
}

// Mature reports the paper's §IV.A maturity criterion for compiled
// artifact generators: the tool never produces code that later fails
// or warns at compilation, so all its failures are clean, immediate
// generation errors.
func (c *ClientSummary) Mature() bool {
	return c.CompileErrors == 0 && c.CompileWarnings == 0
}

// ServerSummary aggregates one server framework's column of Fig. 4.
type ServerSummary struct {
	Created  int
	Deployed int
	// DescriptionWarnings counts published services flagged by the
	// compliance check; DescriptionErrors is always zero by
	// construction (undeployable services are excluded, following the
	// paper's optimistic assumption).
	DescriptionWarnings int
	DescriptionErrors   int
	Tests               int
	GenWarnings         int
	GenErrors           int
	CompileWarnings     int
	CompileErrors       int
}

// ProfileCompliance is one compliance profile's row of the campaign's
// per-profile matrix: how many of each server's published services
// satisfied the profile's core assertions.
type ProfileCompliance struct {
	// ID and Name identify the registered wsi profile.
	ID   string
	Name string
	// Compliant maps server name → count of published services that
	// satisfied the profile. Checked counts per server are
	// Result.Servers[name].Deployed.
	Compliant map[string]int
	// TotalCompliant sums Compliant across servers.
	TotalCompliant int
}

// Result is the complete campaign outcome.
type Result struct {
	// Servers maps server framework name to its Fig. 4 column.
	Servers map[string]*ServerSummary
	// Clients maps client framework name to its cross-server summary.
	Clients map[string]*ClientSummary
	// Matrix maps client name → server name → Table III cell.
	Matrix map[string]map[string]*Cell
	// ServerOrder and ClientOrder preserve the study's presentation
	// order for reporting.
	ServerOrder []string
	ClientOrder []string

	// TotalServices, TotalPublished and TotalTests are the campaign
	// scale numbers (22 024 / 7 239 / 79 629 at full scale).
	TotalServices  int
	TotalPublished int
	TotalTests     int

	// SameFrameworkErrors counts tests where the client and server
	// subsystems belong to the same framework and an error occurred
	// (307 in the study).
	SameFrameworkErrors int
	// InteropErrors counts error situations across the generation and
	// compilation steps.
	InteropErrors int

	// FlaggedServices counts services flagged at the description step
	// (86); FlaggedCleanServices counts those that nevertheless passed
	// every client test without errors (4).
	FlaggedServices      int
	FlaggedCleanServices int
	// UnflaggedFailingServices counts services the compliance check
	// passed without findings that nevertheless errored in at least
	// one client — the paper's "among those that pass, some still
	// present interoperability issues" observation.
	UnflaggedFailingServices int

	// Failures retains every test that errored, in deterministic
	// (service, client) order, with WithKeepFailures. It is
	// the data behind the Table III footnotes (1 588 entries at full
	// scale).
	Failures []TestResult

	// Profiles is the per-profile compliance matrix: one row per
	// registered compliance profile (wsi.Profiles() roster order),
	// counting, per server, the published services that satisfied the
	// profile. The number of checked services per server is the
	// server's Deployed count — every published service is evaluated
	// against every registered profile.
	Profiles []*ProfileCompliance

	// Dedup reports the structural-shape memo layer's statistics for
	// this run. It is bookkeeping, not campaign outcome — the
	// equivalence tests exclude it when comparing Results.
	Dedup *DedupStats

	// Metrics is the observability snapshot taken when Run returned:
	// per-stage latency histograms, stage counters, memo hit/miss, and
	// live gauges (DESIGN.md §8). Counter values are deterministic
	// across worker counts; with a frozen clock injected through
	// WithObs the histograms are too. Like Dedup it is bookkeeping —
	// equivalence tests exclude it. The snapshot is cumulative for the
	// Runner, so repeated Run calls on one runner include earlier work.
	Metrics *obs.Snapshot
}

// config parameterizes a campaign run. It is built only through New and
// its options (options.go); in-package tests also set the kill-point
// probe at the end of the struct.
type config struct {
	// Servers and Clients select the frameworks under test; nil means
	// the full sets of the study.
	Servers []framework.ServerFramework
	Clients []framework.ClientFramework
	// CatalogFor overrides catalog selection per language; nil uses
	// the full study catalogs.
	CatalogFor func(lang typesys.Language) *typesys.Catalog
	// Limit caps the number of classes per catalog (0 = all); used by
	// examples and benchmarks for scaled-down runs.
	Limit int
	// Workers bounds the worker pool; 0 uses GOMAXPROCS.
	Workers int
	// KeepFailures retains per-test detail for every errored test in
	// Result.Failures (the Table III footnote data).
	KeepFailures bool
	// Variant selects the service interface complexity (the paper's
	// future-work extension); zero means services.VariantSimple.
	Variant services.Variant
	// Style selects the SOAP binding style the default servers emit
	// (document/literal when empty); ignored when Servers is set.
	Style wsdl.Style
	// Progress, when non-nil, receives live progress notifications as
	// services complete testing: the current stage (server name) and
	// services fully resolved so far — every client test finished, or
	// rejected at the description step — out of the stage's created
	// total. Calls are serialized (never concurrent) and done is
	// strictly increasing within a stage. Delivery is asynchronous:
	// consecutive completions may coalesce into one callback under load
	// (a slow callback never stalls the workers), and the final callback
	// of a completed stage always reports done == total.
	Progress func(stage string, done, total int)
	// Checker overrides the compliance checker; nil uses the default
	// (extended assertions enabled).
	Checker *wsi.Checker
	// Obs, when non-nil, is the metrics registry the runner instruments
	// into; nil creates a private registry on the real clock. Inject a
	// registry built with obs.NewRegistryWithClock and a frozen clock to
	// make latency histograms deterministic (the determinism tests do).
	Obs *obs.Registry
	// Checkpoint, when non-empty, makes the run durable: every completed
	// cell — a service's description step plus all of its client tests —
	// is appended to a checksummed binary journal in this directory as
	// it completes, and the journal is fsynced every journal.SyncEvery
	// appends and at the end of the run (internal/journal, DESIGN.md §9). An interrupted run — context cancellation, or
	// SIGINT/SIGTERM through cmd/interop — drains its in-flight workers,
	// flushes the journal, and leaves resumable state. A directory that
	// already holds checkpoint state is refused unless Resume is set.
	Checkpoint string
	// Resume replays the cells journaled under Checkpoint instead of
	// re-executing them. The resumed Result — including dedup statistics
	// and metrics counters — is identical to an uninterrupted run's
	// (TestResumeEquivalenceFull proves this at full scale). The journal
	// must have been written by the same campaign configuration: roster,
	// limit, variant, style, catalog source and compliance profiles are
	// fingerprinted and a mismatch is refused. Worker count is
	// deliberately not part of the fingerprint. Resume without Checkpoint
	// is an error.
	Resume bool
	// Shard restricts the run to one deterministic slice of every
	// catalog — definition indexes congruent to Shard.Index modulo
	// Shard.Count, applied after Limit — for distributed execution
	// (distributed.go, DESIGN.md §11). The zero value runs the whole
	// campaign. Shard workers journal under Checkpoint; Merge folds the
	// shard journals back into one Result.
	Shard ShardSpec

	// checkpointProbe, when non-nil, observes every durable journal
	// append — test instrumentation for kill-point injection.
	checkpointProbe func(appended int)
}

// Runner executes campaigns.
type Runner struct {
	cfg     config
	servers []framework.ServerFramework
	clients []framework.ClientFramework
	checker *wsi.Checker
	// profiles is the registered compliance-profile roster (wsi
	// registry order); every published document is evaluated against
	// each for the per-profile compliance matrix. Verdicts travel as a
	// bitmask over this roster.
	profiles []*wsi.Profile
	// sameFramework maps client name → server name of the same
	// framework, for the same-framework failure statistic.
	sameFramework map[string]string
	// dedup is the structural-shape memo table (dedup.go); entries
	// persist for the runner's lifetime, so repeated Publish/Run calls
	// reuse shapes already built.
	dedup *dedupState
	// obs is the metrics registry (WithObs or a private one); met
	// caches its instruments for the hot paths.
	obs *obs.Registry
	met *runnerMetrics
	// ckpt is the study journal of the current Run when WithCheckpoint
	// is set, or the merge coordinator's replay-only handle
	// (checkpoint.go); nil otherwise.
	ckpt *cellJournal
	// plan is the immutable execution plan, built or adopted once per
	// runner (plan.go); nil until ensurePlan.
	planOnce sync.Once
	plan     *campaignPlan
	planErr  error
	// sharedPlan is a plan adopted from another runner with the same
	// configuration (AdoptPlan); ensurePlan uses it instead of building.
	sharedPlan *campaignPlan
}

// newRunner builds a runner from the configuration.
func newRunner(cfg config) *Runner {
	r := &Runner{
		cfg: cfg, servers: cfg.Servers, clients: cfg.Clients, checker: cfg.Checker,
		dedup:    &dedupState{entries: make(map[shapeKey]*shapeEntry)},
		profiles: wsi.Profiles(),
	}
	r.obs = cfg.Obs
	if r.obs == nil {
		r.obs = obs.NewRegistry()
	}
	r.met = newRunnerMetrics(r.obs)
	if r.servers == nil {
		var opts []framework.ServerOption
		if cfg.Style != "" {
			opts = append(opts, framework.WithBindingStyle(cfg.Style))
		}
		r.servers = framework.ServersWithOptions(opts...)
	}
	if r.clients == nil {
		r.clients = framework.Clients()
	}
	if r.checker == nil {
		r.checker = wsi.NewChecker()
	}
	r.sameFramework = map[string]string{
		"Metro":             "Metro",
		"JBossWS CXF":       "JBossWS CXF",
		".NET C#":           "WCF .NET",
		".NET Visual Basic": "WCF .NET",
		".NET JScript":      "WCF .NET",
	}
	return r
}

// catalog selects the class catalog for a language.
func (r *Runner) catalog(lang typesys.Language) *typesys.Catalog {
	if r.cfg.CatalogFor != nil {
		return r.cfg.CatalogFor(lang)
	}
	switch lang {
	case typesys.Java:
		return typesys.JavaCatalog()
	case typesys.CSharp:
		return typesys.CSharpCatalog()
	default:
		return nil
	}
}

// Publish runs the service description generation step for one server
// framework over its catalog, returning the published services (in
// catalog order) and the created-service count. It executes over the
// runner's execution plan exactly like Run: workers own whole plan
// items, and each shape's builder is its first member in catalog order.
// Every returned service carries its Doc bytes.
func (r *Runner) Publish(ctx context.Context, server framework.ServerFramework) ([]PublishedService, int, error) {
	return r.publish(ctx, server, true)
}

// publish is Publish with publishEntry's needDoc flag: a wire stage
// passes false, since it deploys from typed documents and reads no
// bytes, so memo clones and solo representatives come back without
// Doc (DESIGN.md §6.6).
func (r *Runner) publish(ctx context.Context, server framework.ServerFramework, needDoc bool) ([]PublishedService, int, error) {
	sp, err := r.planFor(server)
	if err != nil {
		return nil, 0, err
	}
	defs := sp.defs
	entries := r.resolveEntries(server, sp)
	slots := make([]publishSlot, len(defs))
	err = r.feed(ctx, len(sp.Groups)+len(sp.Loose), func(it int) {
		if it >= len(sp.Groups) {
			di := sp.Loose[it-len(sp.Groups)]
			slots[di] = r.publishLoose(server, defs[di])
			return
		}
		for _, di := range sp.Groups[it].Members {
			slots[di] = r.publishEntry(entries[it], server, defs[di], needDoc)
		}
	})
	if err != nil {
		return nil, 0, err
	}

	published := make([]PublishedService, 0, len(defs))
	for i := range slots {
		if slots[i].err != nil {
			return nil, 0, slots[i].err
		}
		if slots[i].ok {
			published = append(published, slots[i].svc)
		}
	}
	return published, len(defs), nil
}

// publishSlot is the outcome of the description step for one service
// definition: rejected (ok=false), published, or errored. mode and
// verified record the route taken, for the cell journal; the spans are
// what an executed publish measured, for the route ledger
// (creditPublish).
type publishSlot struct {
	ok       bool
	svc      PublishedService
	err      error
	mode     recordMode
	verified bool

	publishSpan, wsiSpan time.Duration
}

// checkDoc runs the WS-I compliance check under the stage timer,
// returning the primary checker's report, the per-profile verdict mask
// over the registered roster, and the check's span. The primary
// checker's own profile reuses its report instead of evaluating twice.
func (r *Runner) checkDoc(doc *wsdl.Definitions) (*wsi.Report, uint64, time.Duration) {
	start := r.met.now()
	report := r.checker.Check(doc)
	primary := r.checker.Profile()
	var mask uint64
	for i, p := range r.profiles {
		compliant := false
		if p == primary {
			compliant = report.Compliant()
		} else {
			compliant = p.Evaluate(doc).Compliant()
		}
		if compliant {
			mask |= 1 << uint(i)
		}
	}
	return report, mask, r.met.since(start)
}

// publishDirect runs the description step for one definition without
// the shape memo — the per-class path every memoized outcome is
// verified against. The caller credits the slot.
func (r *Runner) publishDirect(server framework.ServerFramework, def services.Definition) (s publishSlot) {
	start := r.met.now()
	doc, err := server.Publish(def)
	if err != nil {
		// Not deployable: excluded from further testing (the paper's
		// optimistic assumption at the description step).
		s.publishSpan = r.met.since(start)
		return s
	}
	raw, err := wsdl.Marshal(doc)
	s.publishSpan = r.met.since(start)
	if err != nil {
		s.err = fmt.Errorf("marshal WSDL for %s on %s: %w", def.Parameter.Name, server.Name(), err)
		return s
	}
	report, profiles, span := r.checkDoc(doc)
	s.wsiSpan = span
	s.ok = true
	s.svc = PublishedService{
		Server:    server.Name(),
		Class:     def.Parameter.Name,
		Doc:       raw,
		Flagged:   len(report.Violations) > 0,
		Compliant: report.Compliant(),
		Profiles:  profiles,
		analysis:  &sharedAnalysis{},
	}
	return s
}

func (r *Runner) workers() int {
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// feed runs do for items 0..n-1 on the runner's worker pool — the one
// pool behind Publish, the study stage and the wire stages. An item a
// worker has received runs to completion; the feed stops handing out
// items on cancellation, and ctx.Err() wins after the drain.
func (r *Runner) feed(ctx context.Context, n int, do func(it int)) error {
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				do(it)
			}
		}()
	}
loop:
	for it := 0; it < n; it++ {
		select {
		case <-ctx.Done():
			break loop
		case ch <- it:
		}
	}
	close(ch)
	wg.Wait()
	return ctx.Err()
}

// RunTest executes steps 2–3 for one published service against one
// client framework, sharing the service's memoized document analysis
// when the runner attached one. The generation and compilation steps
// are in-process and run to completion — a started test is never torn
// mid-step, which is what makes a drained service a journalable
// (resumable) unit.
func RunTest(client framework.ClientFramework, svc PublishedService) TestResult {
	var code [1]outcomeCode
	runRow(nil, &svc, []framework.ClientFramework{client}, code[:])
	return code[0].testResult(svc.Server, client.Name(), svc.Class)
}

// rowUnits is the stack capacity runRow keeps its generated units in;
// a larger roster spills them to the heap.
const rowUnits = 16

// runRow executes steps 2–3 of svc for every client i whose codes[i] is
// still zero, writing each one's outcome code with the executed bit
// set. The row generates for every pending client, then compiles every
// unit that generated, then releases the units back to the generator
// pool. Each phase is one clock span, credited once per row (creditRow)
// into campaign.generate.seconds and campaign.compile.seconds (the
// compile span only when a unit generated); the run and error counters
// stay per test. A row with nothing pending reads no clock.
func runRow(m *runnerMetrics, svc *PublishedService, clients []framework.ClientFramework, codes []outcomeCode) {
	pending := false
	for _, c := range codes {
		pending = pending || c == 0
	}
	if !pending {
		return
	}
	var buf [rowUnits]*artifact.Unit
	units := buf[:0]
	if len(clients) > rowUnits {
		units = make([]*artifact.Unit, 0, len(clients))
	}
	start := m.now()
	var t rowTally
	for i, client := range clients {
		units = append(units, nil)
		if codes[i] != 0 {
			continue
		}
		gen := generationFor(client, svc)
		var o Outcome
		o.mergeIssues(gen.Issues)
		code := codeExecuted
		if o.Warning {
			code |= codeGenWarning
		}
		if o.Error {
			code |= codeGenError
			t.genErrs++
		}
		if gen.Unit != nil {
			code |= codeCompileRan
			units[i] = gen.Unit
		}
		codes[i] = code
		t.gens++
	}
	// The generation phase's end stamp doubles as the compile phase's
	// start.
	mid := m.now()
	for i, u := range units {
		if u == nil {
			continue
		}
		var o Outcome
		o.mergeDiagnostics(clients[i].Verify(u))
		if o.Warning {
			codes[i] |= codeCompileWarning
		}
		if o.Error {
			codes[i] |= codeCompileError
			t.compileErrs++
		}
		t.compiles++
	}
	// The units are dead once their diagnostics are folded in; hand the
	// arena storage back to the generator pool.
	for _, u := range units {
		framework.ReleaseUnit(u)
	}
	var compileSpan time.Duration
	if t.compiles > 0 {
		compileSpan = m.since(mid)
	}
	m.creditRow(t, mid.Sub(start), compileSpan)
}

// generationFor runs the artifact generation step through the
// service's shared analysis, computed on first use, when it has one.
// Otherwise, and for a document the shared parse rejects, it takes the
// byte path (framework.Generate), as the real tools do: the path of a
// service built outside the runner (RunTest, Explain) and of the
// test-side reference every shared analysis is proved against.
func generationFor(client framework.ClientFramework, svc *PublishedService) framework.GenerationResult {
	if sa := svc.analysis; sa != nil {
		sa.once.Do(func() { sa.a, sa.err = framework.Analyze(svc.Doc) })
		if sa.err == nil {
			return client.GenerateAnalyzed(sa.a)
		}
	}
	return framework.Generate(client, svc.Doc)
}

// Run executes the full campaign. Each server stage executes the
// runner's execution plan shape-first (plan.go): workers own whole
// shape groups, publish and test their members, and write each class's
// classified outcomes into its own slot of the stage's slab. One serial
// fold then walks the slots in catalog order, so the Result is
// identical to a sequential run regardless of worker count or
// scheduling.
//
// With WithCheckpoint set the run is durable: completed cells are
// journaled as they finish, cancellation drains in-flight work and
// flushes the journal before returning ctx.Err(), and a later run with
// WithResume replays the journal into an identical Result
// (checkpoint.go, DESIGN.md §9).
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	// The plan is resolved before the checkpoint opens so the journal
	// meta can record its provenance.
	if _, err := r.ensurePlan(); err != nil {
		return nil, err
	}
	ckpt, err := r.openJournal(studyAxis)
	if err != nil {
		return nil, err
	}
	r.ckpt = ckpt
	res, err := r.runCampaign(ctx)
	r.ckpt = nil
	if cerr := ckpt.close(); err == nil {
		err = cerr
	}
	if err == nil {
		// The journal's durable-point probes fire from the writer
		// goroutine, which execution can outrun by the channel buffer; a
		// cancellation they trigger during the final flush must still win,
		// or an interrupted-at-N run could report clean completion.
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runCampaign is Run's body, bracketed by the checkpoint lifecycle.
func (r *Runner) runCampaign(ctx context.Context) (*Result, error) {
	res := newResult(r)
	before := r.dedup.snapshot()
	wsiBefore := r.met.wsiChecks.Value()
	memoBefore := r.met.wsiMemoized.Value()
	for _, server := range r.servers {
		if err := r.runServer(ctx, server, res); err != nil {
			return nil, err
		}
	}
	res.Dedup = r.dedup.statsSince(before)
	res.Dedup.WSIChecks = int(r.met.wsiChecks.Value() - wsiBefore)
	res.Dedup.WSIMemoized = int(r.met.wsiMemoized.Value() - memoBefore)
	res.Metrics = r.obs.Snapshot()
	return res, nil
}

// Metrics snapshots the runner's observability registry, covering
// every campaign mode executed on it so far (Run, RunCommunication,
// RunRobustness). Result.Metrics is the same snapshot taken when Run
// returned.
func (r *Runner) Metrics() *obs.Snapshot { return r.obs.Snapshot() }

// Obs exposes the runner's metrics registry (WithObs, or the
// private one New created) — the -debug endpoint serves it live
// while a campaign runs.
func (r *Runner) Obs() *obs.Registry { return r.obs }

func newResult(r *Runner) *Result {
	res := &Result{
		Servers: make(map[string]*ServerSummary, len(r.servers)),
		Clients: make(map[string]*ClientSummary, len(r.clients)),
		Matrix:  make(map[string]map[string]*Cell, len(r.clients)),
	}
	for _, s := range r.servers {
		res.Servers[s.Name()] = &ServerSummary{}
		res.ServerOrder = append(res.ServerOrder, s.Name())
	}
	for _, c := range r.clients {
		row := make(map[string]*Cell, len(r.servers))
		for _, s := range r.servers {
			row[s.Name()] = &Cell{}
		}
		res.Matrix[c.Name()] = row
		res.Clients[c.Name()] = &ClientSummary{}
		res.ClientOrder = append(res.ClientOrder, c.Name())
	}
	for _, p := range r.profiles {
		res.Profiles = append(res.Profiles, &ProfileCompliance{
			ID:        p.ID,
			Name:      p.Name,
			Compliant: make(map[string]int, len(r.servers)),
		})
	}
	return res
}

// progress delivers WithProgress callbacks for one server stage
// from a dedicated notifier goroutine, so a slow callback — a terminal
// write, the daemon's NDJSON encoder — never stalls the workers
// reporting completions: serviceDone is one atomic add plus a
// non-blocking doorbell. The notifier serializes callbacks with
// strictly increasing done counts, may coalesce consecutive
// completions into one callback under load, and close guarantees the
// latest count (done == total for a completed stage) is delivered
// before the stage returns. A nil progress (no callback configured) is
// a no-op.
type progress struct {
	fn    func(stage string, done, total int)
	stage string
	total int
	done  atomic.Int64
	kick  chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup
}

// newProgress starts the stage's notifier; returns nil (a no-op
// progress) when no callback is configured.
func newProgress(fn func(stage string, done, total int), stage string, total int) *progress {
	if fn == nil {
		return nil
	}
	p := &progress{
		fn: fn, stage: stage, total: total,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	p.wg.Add(1)
	go p.notify()
	return p
}

func (p *progress) notify() {
	defer p.wg.Done()
	var last int64
	report := func() {
		if n := p.done.Load(); n > last {
			last = n
			p.fn(p.stage, int(n), p.total)
		}
	}
	for {
		select {
		case <-p.kick:
			report()
		case <-p.quit:
			report()
			return
		}
	}
}

// serviceDone reports one more service resolved: fully tested, or
// rejected at the description step.
func (p *progress) serviceDone() { p.add(1) }

// add reports n more services resolved at once — the planned
// executor's clone broadcast resolves a whole group in one step.
func (p *progress) add(n int) {
	if p == nil || n == 0 {
		return
	}
	p.done.Add(int64(n))
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// close ends the stage, delivering the final count first.
func (p *progress) close() {
	if p == nil {
		return
	}
	close(p.quit)
	p.wg.Wait()
}

// defsFor generates the (possibly limited) service definition list
// for one server framework's catalog.
func (r *Runner) defsFor(server framework.ServerFramework) ([]services.Definition, error) {
	cat := r.catalog(server.Language())
	if cat == nil {
		return nil, fmt.Errorf("campaign: no catalog for language %s", server.Language())
	}
	variant := r.cfg.Variant
	if variant == 0 {
		variant = services.VariantSimple
	}
	defs := services.GenerateVariant(cat, variant)
	if r.cfg.Limit > 0 && len(defs) > r.cfg.Limit {
		defs = defs[:r.cfg.Limit]
	}
	if sh := r.cfg.Shard; sh.enabled() {
		if err := sh.validate(); err != nil {
			return nil, err
		}
		// Interleaved assignment: index i belongs to shard i mod Count.
		// Sharding after Limit keeps every shard's cell set a pure
		// function of (catalog, Limit, Index, Count), independent of how
		// many other shards exist or run.
		slice := make([]services.Definition, 0, (len(defs)+sh.Count-1)/sh.Count)
		for i := sh.Index; i < len(defs); i += sh.Count {
			slice = append(slice, defs[i])
		}
		defs = slice
	}
	return defs, nil
}

// foldStage is a study stage's one serial fold. It runs after the pool
// drains and walks the stage's cells in catalog order: each published
// service is classified into res, and its errored tests join the
// Failures index. Routes only fill slots, so neither the Result nor a
// fold counter depends on worker count or scheduling.
func (r *Runner) foldStage(res *Result, st *studyStage) {
	name := st.server.Name()
	sum := res.Servers[name]
	sum.Created = len(st.cells)
	res.TotalServices += len(st.cells)
	cells := make([]*Cell, st.nc)
	clients := make([]*ClientSummary, st.nc)
	for ci, c := range r.clients {
		cells[ci], clients[ci] = res.Matrix[c.Name()][name], res.Clients[c.Name()]
	}
	compliant := make([]int, len(r.profiles))
	for di := range st.cells {
		c := &st.cells[di]
		if !c.published {
			continue
		}
		sum.Deployed++
		res.TotalPublished++
		if c.flagged {
			sum.DescriptionWarnings++
			res.FlaggedServices++
		}
		for pi := range compliant {
			if c.profiles&(1<<uint(pi)) != 0 {
				compliant[pi]++
			}
		}
		row := st.row(di)
		clean := true
		for ci, code := range row {
			cell, cli := cells[ci], clients[ci]
			cell.Tests++
			cli.Tests++
			sum.Tests++
			res.TotalTests++
			if code&codeGenWarning != 0 {
				cell.GenWarnings++
				cli.GenWarnings++
				sum.GenWarnings++
			}
			if code&codeGenError != 0 {
				cell.GenErrors++
				cli.GenErrors++
				sum.GenErrors++
				res.InteropErrors++
			}
			if code&codeCompileRan != 0 {
				if code&codeCompileWarning != 0 {
					cell.CompileWarnings++
					cli.CompileWarnings++
					sum.CompileWarnings++
				}
				if code&codeCompileError != 0 {
					cell.CompileErrors++
					cli.CompileErrors++
					sum.CompileErrors++
					res.InteropErrors++
				}
			}
			if !code.errorAnywhere() {
				continue
			}
			clean = false
			if c.flagged {
				cli.ErrorsOnFlagged++
			} else {
				cli.ErrorsOnClean++
			}
			if r.sameFramework[r.clients[ci].Name()] == name {
				res.SameFrameworkErrors++
			}
		}
		switch {
		case c.flagged && clean:
			res.FlaggedCleanServices++
		case !c.flagged && !clean:
			res.UnflaggedFailingServices++
		}
		if !clean && r.cfg.KeepFailures {
			res.Failures = r.appendFails(res.Failures, name, st.sp.defs[di].Parameter.Name, row)
		}
	}
	for pi, pc := range res.Profiles {
		pc.Compliant[name] += compliant[pi]
		pc.TotalCompliant += compliant[pi]
		r.met.profileCompliant[pi].Add(int64(compliant[pi]))
	}
}

// appendFails appends the errored cells of one outcome row to the
// Failures index, in client roster order.
func (r *Runner) appendFails(fails []TestResult, server, class string, codes []outcomeCode) []TestResult {
	for ci, code := range codes {
		if code.errorAnywhere() {
			fails = append(fails, code.testResult(server, r.clients[ci].Name(), class))
		}
	}
	return fails
}
