package campaign

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/services"
	"wsinterop/internal/shape"
	"wsinterop/internal/wsdl"
)

// This file implements the structural-shape memoization layer
// (DESIGN.md §6.6). Framework behaviour depends only on a class's
// structural traits, so the campaign content-addresses every class by
// its shape fingerprint and performs the expensive per-class work —
// publish, WS-I check, and all eleven client tests — once per
// (server, shape) instead of once per class. Per-class output is
// rehydrated by rendering a split document template with the class's
// name-derived strings and by cloning test results with the class name
// rewritten.
//
// WSDL bytes are rendered only where something reads them: the builder
// of a multi-member shape (template verification, the journal), the
// per-class path, and Publish. Inside Run a solo shape's document is
// read only in its typed form (WS-I check, analysis), so its builder
// skips the marshal; a later Publish renders the bytes once per entry
// from the representative's typed document (shapeEntry.repDoc).
//
// The shapes themselves come from the execution plan (plan.go), which
// groups every catalog by fingerprint up front; this file holds the
// per-entry memo logic the plan's executors share.
//
// The memo never assumes the shape equivalence it exploits: the first
// class of every shape runs the full per-class path, and the shape's
// template is admitted only if it re-renders that class's document
// byte-for-byte. A shape that fails verification (or a class whose
// names fail the shape.Memoizable guard) silently takes the per-class
// path, so enabling the memo can never change a Result — the property
// TestDedupEquivalenceFull proves at full scale.

// DedupStats summarizes the shape memo layer's effect on one
// campaign run (Result.Dedup).
type DedupStats struct {
	// Enabled reports whether the memo layer was active
	// (the noDedup hook unset).
	Enabled bool
	// Shapes is the number of distinct (server, fingerprint) memo
	// entries built — the structural diversity of the corpus.
	Shapes int
	// PublishTotal counts publishes routed through the memo;
	// PublishMemoized counts those served by a template render or a
	// memoized rejection instead of a full publish+marshal+check.
	PublishTotal    int
	PublishMemoized int
	// TestTotal counts client tests routed through the memo;
	// TestMemoized counts those served by cloning a memoized outcome.
	TestTotal    int
	TestMemoized int
	// Fallbacks counts publishes that bypassed the memo: hostile
	// names failing the shape.Memoizable guard, or shapes whose
	// template failed byte-for-byte verification.
	Fallbacks int
	// WSIChecks counts full WS-I document checks executed during the
	// run; WSIMemoized counts verdicts served from the shape memo's
	// chunk-predicate path instead. They mirror the internal/obs
	// counters campaign.wsi.checks and campaign.wsi.memoized.
	WSIChecks   int
	WSIMemoized int
}

// shapeKey addresses one memo entry: shapes are structural, so the
// emitting server (which fixes language, quirks, and binding style)
// completes the address.
type shapeKey struct {
	server string
	fp     shape.Fingerprint
}

// shapeEntry memoizes everything the campaign derives from one
// structural shape on one server. The entry is built exactly once,
// from the shape's builder (its first member in catalog order), or
// seeded from the builder's journal record on resume; its test row runs
// once, on the first test or wire verdict that reads it.
type shapeEntry struct {
	once sync.Once
	// seed is the journaled builder record of a group a resumed study
	// replayed in full, and seedDef its class: the first publish of the
	// shape (a later mode's Publish) seeds the entry from them under once
	// instead of building it again (seedMemoFromJournal). Nil otherwise.
	seed    *journal.Record
	seedDef *services.Definition
	// rejected records a memoized NotDeployable outcome. A marshal
	// failure is not memoized: the build leaves neither tmpl nor rep
	// behind, so later members take the per-class path and report it
	// themselves.
	rejected bool
	// tmpl is the verified document template; nil means verification
	// failed and same-shape classes must take the per-class path.
	tmpl *wsdl.Template
	// solo marks a shape the execution plan proved single-member: no
	// clone will ever render from the template, so buildShape skips
	// constructing and verifying it (about 91% of shapes at full
	// scale), and a repeated publish of the one member serves rep.
	solo               bool
	flagged, compliant bool
	// profiles is the shape's per-profile verdict mask (bit i set =
	// compliant with the i-th registered profile). Like flagged and
	// compliant it is name-invariant under the SubstitutionSafe guard —
	// every registered profile's name-sensitive assertion set is covered
	// by the chunk predicates — so clones inherit it verbatim.
	profiles uint64
	// rep is the shape's representative: the builder class, whose
	// outputs were produced on the per-class path and verified against
	// the template. Memoized tests always run against rep (its analysis
	// cell is seeded once per shape), so clones carry no analysis cell
	// and never parse their own documents: the study and the wire modes
	// read their step-2/3 verdicts from the slots below, and the wire
	// modes deploy each class from the document its server emits.
	rep PublishedService
	// docOnce guards the one on-demand render of rep's document when a
	// solo builder skipped its marshal (repDoc).
	docOnce sync.Once
	doc     []byte
	docErr  error
	// row holds the shape's memoized outcome per client framework,
	// keyed by roster index. Flagged status is constant per entry, so
	// the (client, fingerprint, flagged) memo key of DESIGN.md §6.6
	// collapses to the slot index.
	row testRow
}

// testRow is one shape's client tests, run as a unit against the
// representative: once runs every client whose code is still zero (a
// resume journal may have seeded the others, executed bit set), so
// each (shape, client) test runs at most once per runner.
type testRow struct {
	once  sync.Once
	codes []outcomeCode
}

// newEntry returns an unbuilt entry for a plan group. The plan proves
// single-member shapes up front; their builders skip template
// construction (see shapeEntry.solo).
func (r *Runner) newEntry(g *planGroup) *shapeEntry {
	return &shapeEntry{solo: len(g.Members) == 1, row: testRow{codes: make([]outcomeCode, len(r.clients))}}
}

// dedupState is the runner-level memo table plus its counters.
type dedupState struct {
	mu      sync.Mutex
	entries map[shapeKey]*shapeEntry

	shapes    atomic.Int64
	pubTotal  atomic.Int64
	pubHits   atomic.Int64
	testTotal atomic.Int64
	testRuns  atomic.Int64
	fallbacks atomic.Int64
}

type dedupCounters struct {
	shapes, pubTotal, pubHits, testTotal, testRuns, fallbacks int64
}

func (d *dedupState) snapshot() dedupCounters {
	return dedupCounters{
		shapes:    d.shapes.Load(),
		pubTotal:  d.pubTotal.Load(),
		pubHits:   d.pubHits.Load(),
		testTotal: d.testTotal.Load(),
		testRuns:  d.testRuns.Load(),
		fallbacks: d.fallbacks.Load(),
	}
}

// statsSince converts the counter delta since a snapshot into the
// exported statistics.
func (d *dedupState) statsSince(before dedupCounters) *DedupStats {
	now := d.snapshot()
	return &DedupStats{
		Enabled:         true,
		Shapes:          int(now.shapes - before.shapes),
		PublishTotal:    int(now.pubTotal - before.pubTotal),
		PublishMemoized: int(now.pubHits - before.pubHits),
		TestTotal:       int(now.testTotal - before.testTotal),
		TestMemoized:    int(now.testTotal - before.testTotal - (now.testRuns - before.testRuns)),
		Fallbacks:       int(now.fallbacks - before.fallbacks),
	}
}

// dedupOn reports whether the shape memo layer is active.
func (r *Runner) dedupOn() bool { return !r.cfg.noDedup }

// publishEntry routes one memoizable definition through its shape memo
// entry, resolved in bulk from the plan (resolveEntries). The returned
// slot carries the route taken (recordMode) so the cell journal can
// replay the exact same counter contributions on resume, and the route
// ledger (creditPublish) credits it once the route is known.
//
// needDoc controls whether the slot's service carries its serialized
// document. Inside Run nothing reads the bytes of a clone or of a solo
// shape's builder — tests run against the shape representative's typed
// document and only multi-member builder records journal bytes — so Run
// passes false and skips those renders; the public Publish API passes
// true, rendering a solo representative's bytes at most once per entry
// (repDoc). Every other route (direct, fallback, multi-member builder)
// always carries its document.
func (r *Runner) publishEntry(e *shapeEntry, server framework.ServerFramework, def services.Definition, needDoc bool) (s publishSlot) {
	defer r.creditSlot(&s)
	built := false
	var seedErr error
	e.once.Do(func() {
		if e.seed != nil {
			// The resumed study replayed this shape's whole group and
			// already credited its build; seed the entry it left.
			seedErr = r.seedBuilder(e, server)
			return
		}
		built = true
		s = r.buildShape(e, server, def, needDoc)
	})
	if seedErr != nil {
		s.err = seedErr
		return s
	}
	if built {
		s.mode = modeBuilt
		// verified means the memo is usable: the template reproduced the
		// document byte-for-byte, or the plan proved the shape solo (no
		// clone will ever consult the template). Resume replay credits
		// memo-path counters from this flag, so it must track memo
		// validity, not template existence.
		s.verified = e.tmpl != nil || e.solo
		return s
	}
	switch {
	case e.rejected:
		s.mode = modeMemoRejected
		return s
	case e.solo && e.rep.memo != nil:
		// The plan proved the shape single-member, so this is the builder
		// published again (a repeated Run, or the next mode's Publish on
		// this runner): serve the representative itself, with its bytes
		// rendered on first demand if its build skipped them.
		s.svc = e.rep
		if needDoc && s.svc.Doc == nil {
			raw, err := e.repDoc()
			if err != nil {
				s.err = fmt.Errorf("marshal WSDL for %s on %s: %w", def.Parameter.Name, server.Name(), err)
				return s
			}
			s.svc.Doc = raw
		}
		s.ok = true
		s.mode = modeMemoized
		return s
	case e.tmpl == nil:
		// The shape failed template verification: per-class path.
		s = r.publishDirect(server, def)
		s.mode = modeMemoFallback
		return s
	}
	if !substitutionSafe(def) {
		// The name-sensitive WS-I chunk predicates failed: the shape's
		// memoized verdict may not transfer to this class's names, so
		// it takes the full per-class path (DESIGN.md §10).
		s = r.publishDirect(server, def)
		s.mode = modeMemoFallback
		return s
	}
	var raw []byte
	if needDoc {
		var err error
		raw, err = e.tmpl.Render(shape.Vars(def))
		if err != nil {
			// Unreachable (slot arity is fixed); stay correct regardless.
			s = r.publishDirect(server, def)
			s.mode = modeMemoFallback
			return s
		}
	}
	// The WS-I verdict rides the memo: the ledger counts it as memoized,
	// so the shape-level check path stays observable next to executed
	// checks (campaign.wsi.checks).
	s.ok = true
	s.mode = modeMemoized
	s.svc = PublishedService{
		Server:    server.Name(),
		Class:     def.Parameter.Name,
		Doc:       raw,
		Flagged:   e.flagged,
		Compliant: e.compliant,
		Profiles:  e.profiles,
		memo:      e,
	}
	return s
}

// buildShape computes the memo entry from the shape's builder class.
// The class's own outputs are produced exactly as on the per-class
// path; the split template is admitted only after it reproduces those
// outputs byte-for-byte.
func (r *Runner) buildShape(e *shapeEntry, server framework.ServerFramework, def services.Definition, needDoc bool) (s publishSlot) {
	start := r.met.now()
	doc, err := server.Publish(def)
	if err != nil {
		s.publishSpan = r.met.since(start)
		e.rejected = true
		return s
	}
	raw, err := r.repBytes(e, doc, needDoc)
	s.publishSpan = r.met.since(start)
	if err != nil {
		s.err = fmt.Errorf("marshal WSDL for %s on %s: %w", def.Parameter.Name, server.Name(), err)
		return s
	}
	report, profiles, span := r.checkDoc(doc)
	s.wsiSpan = span
	e.flagged = len(report.Violations) > 0
	e.compliant = report.Compliant()
	e.profiles = profiles
	if !e.solo {
		e.tmpl = r.splitShape(server, def, raw)
	}
	s.ok = true
	s.svc = PublishedService{
		Server:    server.Name(),
		Class:     def.Parameter.Name,
		Doc:       raw,
		Flagged:   e.flagged,
		Compliant: e.compliant,
		Profiles:  e.profiles,
		analysis:  &sharedAnalysis{},
	}
	if e.tmpl != nil || e.solo {
		// Only a verified shape may share memoized test outcomes (a
		// solo shape has nobody to share with, so it keeps the memo's
		// seeded analysis without needing the template proof).
		e.seedRep(s.svc, doc)
		s.svc = e.rep
	}
	return s
}

// repBytes returns the serialized form of a shape representative's
// published document, when anything reads it: a multi-member shape
// splits it into its template, while a solo shape's bytes have no
// reader unless the caller (needDoc) or the reparse hook asks for them;
// repDoc renders them later on demand. Skipping the marshal hides no
// error: wsdl.Marshal fails only when xsd.MarshalSchemaTo does, and the
// schema writer has no failing path.
func (r *Runner) repBytes(e *shapeEntry, doc *wsdl.Definitions, needDoc bool) ([]byte, error) {
	if !e.solo || needDoc || r.cfg.reparse {
		return wsdl.Marshal(doc)
	}
	return nil, nil
}

// seedRep makes svc the entry's representative, with its analysis
// seeded from the in-memory document: the document's serialized form
// passed byte-for-byte verification (or the shape is solo), so the
// serialize→re-parse round trip of the per-class path is skipped —
// equivalence is proven at full scale by TestDedupEquivalenceFull.
func (e *shapeEntry) seedRep(svc PublishedService, doc *wsdl.Definitions) {
	svc.memo = e
	svc.analysis = &sharedAnalysis{}
	svc.analysis.once.Do(func() { svc.analysis.a = framework.AnalyzeDoc(doc) })
	e.rep = svc
}

// repDoc renders the representative's document from its seeded typed
// form, once per entry: the bytes a solo builder skipped, for the
// Publish calls that read them (concurrent callers share one render).
func (e *shapeEntry) repDoc() ([]byte, error) {
	e.docOnce.Do(func() {
		e.doc, e.docErr = wsdl.Marshal(e.rep.analysis.a.Definitions())
	})
	return e.doc, e.docErr
}

// splitShape publishes the shape's sentinel-renamed definition,
// splits its marshaled document into a template, and verifies the
// template re-renders the first class's real document byte-for-byte.
// Any disagreement returns nil — same-shape classes then fall back to
// the per-class path, trading speed for certainty.
func (r *Runner) splitShape(server framework.ServerFramework, def services.Definition, want []byte) *wsdl.Template {
	sdef, svars := shape.Sentinel(def)
	sdoc, err := server.Publish(sdef)
	if err != nil {
		return nil
	}
	tmpl, err := wsdl.MarshalTemplate(sdoc, svars)
	if err != nil {
		return nil
	}
	got, err := tmpl.Render(shape.Vars(def))
	if err != nil || !bytes.Equal(got, want) {
		return nil
	}
	return tmpl
}

// testRow runs steps 2–3 of svc against every client, serving them
// from the shape memo when the service carries a verified entry, and
// fills codes (one per client, roster order) with the service's
// columnar row. The memoized row is computed by the shape's
// representative; because the columnar form carries no name-derived
// strings, a clone's row IS the memoized one with the executed bits
// cleared — the distinction the cell journal persists so resume can
// re-seed the memo row without double-running tests. The call that
// runs the row keeps the executed bit of every client it ran.
func (r *Runner) testRow(svc *PublishedService, codes []outcomeCode) {
	nc := int64(len(codes))
	e := svc.memo
	if e == nil {
		clear(codes)
		runRow(r.met, r.cfg.reparse, svc, r.clients, codes)
		r.creditTests(false, nc, 0)
		return
	}
	won := false
	e.row.once.Do(func() {
		// codes keeps the pre-run row: a zero slot is one this call runs.
		won = true
		copy(codes, e.row.codes)
		runRow(r.met, r.cfg.reparse, &e.rep, r.clients, e.row.codes)
	})
	runs := int64(0)
	for ci, code := range e.row.codes {
		if won && codes[ci] == 0 {
			runs++
		} else {
			code &^= codeExecuted
		}
		codes[ci] = code
	}
	r.creditTests(true, nc, runs)
}

// verdict returns client ci's step-2/3 outcome code for svc. A service
// outside the memo is tested directly, as a one-client row. A memoized
// one reads its shape's row, which runs at most once per runner, for
// whichever of the study (testRow) and the wire modes asks first; a
// wire cell counts no study test.
func (r *Runner) verdict(svc *PublishedService, ci int) outcomeCode {
	e := svc.memo
	if e == nil {
		var code [1]outcomeCode
		runRow(r.met, r.cfg.reparse, svc, r.clients[ci:ci+1], code[:])
		return code[0]
	}
	e.row.once.Do(func() { runRow(r.met, r.cfg.reparse, &e.rep, r.clients, e.row.codes) })
	return e.row.codes[ci]
}
