package campaign

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/shape"
	"wsinterop/internal/wsdl"
)

// This file implements the structural-shape memoization layer
// (DESIGN.md §6.6). Framework behaviour depends only on a class's
// structural traits, so the campaign content-addresses every class by
// its shape fingerprint and performs the expensive per-class work —
// publish, WSDL marshal, WS-I check, and all eleven client tests —
// once per (server, shape) instead of once per class. Per-class
// output is rehydrated by rendering a split document template with
// the class's name-derived strings and by cloning test results with
// the class name rewritten.
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
	// (Config.NoDedup unset).
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
// from the shape's builder (its first member in catalog order); test
// slots fill as the builder's client tests run.
type shapeEntry struct {
	once sync.Once
	// rejected records a memoized NotDeployable outcome.
	rejected bool
	// err is the underlying marshal failure, re-wrapped per class.
	err error
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
	// cell is seeded once per shape), so same-shape clones never parse
	// their own documents in the campaign — while keeping each clone's
	// own analysis cell private for name-dependent consumers like the
	// communication extension's endpoint derivation.
	rep PublishedService
	// tests holds one memoized outcome per client framework, keyed by
	// roster index. Flagged status is constant per entry, so the
	// (client, fingerprint, flagged) memo key of DESIGN.md §6.6
	// collapses to the slot index.
	tests []testMemo
}

type testMemo struct {
	once sync.Once
	code outcomeCode
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
func (r *Runner) dedupOn() bool { return !r.cfg.NoDedup }

// publishEntry routes one memoizable definition through its shape memo
// entry, resolved in bulk from the plan (resolveEntries). The returned
// slot carries the route taken (recordMode) so the cell journal can
// replay the exact same counter contributions on resume.
//
// needDoc controls whether a memo-served clone materializes its
// rendered document. Inside Run nothing ever reads a clone's bytes —
// tests run against the shape representative and only builder records
// journal a document — so Run passes false and skips the render
// entirely; the public Publish API passes true. Every other route
// (direct, fallback, builder) always carries its document.
func (r *Runner) publishEntry(e *shapeEntry, server framework.ServerFramework, def services.Definition, needDoc bool) (s publishSlot) {
	r.met.publishTotal.Inc()
	r.dedup.pubTotal.Add(1)
	built := false
	e.once.Do(func() {
		built = true
		r.dedup.shapes.Add(1)
		s = r.buildShape(e, server, def)
	})
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
		r.dedup.pubHits.Add(1)
		r.met.publishMemoized.Inc()
		s.mode = modeMemoRejected
		return s
	case e.err != nil:
		r.dedup.pubHits.Add(1)
		r.met.publishMemoized.Inc()
		s.err = fmt.Errorf("marshal WSDL for %s on %s: %w", def.Parameter.Name, server.Name(), e.err)
		return s
	case e.solo:
		// The plan proved the shape single-member, so this is the builder
		// published again (a repeated Run, or the next mode's Publish on
		// this runner): serve the representative itself.
		r.dedup.pubHits.Add(1)
		r.met.publishMemoized.Inc()
		r.met.wsiMemoized.Inc()
		s.ok = true
		s.mode = modeMemoized
		s.svc = e.rep
		return s
	case e.tmpl == nil:
		// The shape failed template verification: per-class path.
		r.dedup.fallbacks.Add(1)
		r.met.publishFallback.Inc()
		s = r.publishDirect(server, def)
		s.mode = modeMemoFallback
		return s
	}
	if !substitutionSafe(def) {
		// The name-sensitive WS-I chunk predicates failed: the shape's
		// memoized verdict may not transfer to this class's names, so
		// it takes the full per-class path (DESIGN.md §10).
		r.dedup.fallbacks.Add(1)
		r.met.publishFallback.Inc()
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
			r.dedup.fallbacks.Add(1)
			r.met.publishFallback.Inc()
			s = r.publishDirect(server, def)
			s.mode = modeMemoFallback
			return s
		}
	}
	r.dedup.pubHits.Add(1)
	r.met.publishMemoized.Inc()
	// The WS-I verdict rides the memo: count it so the shape-level
	// check path stays observable next to executed checks (wsiChecks).
	r.met.wsiMemoized.Inc()
	s.ok = true
	s.mode = modeMemoized
	s.svc = PublishedService{
		Server:    server.Name(),
		Class:     def.Parameter.Name,
		Doc:       raw,
		Flagged:   e.flagged,
		Compliant: e.compliant,
		Profiles:  e.profiles,
		analysis:  &sharedAnalysis{},
		memo:      e,
	}
	return s
}

// buildShape computes the memo entry from the shape's builder class. The class's own outputs are produced exactly as on the
// per-class path; the split template is admitted only after it
// reproduces those outputs byte-for-byte.
func (r *Runner) buildShape(e *shapeEntry, server framework.ServerFramework, def services.Definition) (s publishSlot) {
	start := r.met.now()
	doc, err := server.Publish(def)
	if err != nil {
		r.met.observe(r.met.publishSeconds, start)
		r.met.publishRejected.Inc()
		e.rejected = true
		return s
	}
	raw, err := wsdl.Marshal(doc)
	r.met.observe(r.met.publishSeconds, start)
	if err != nil {
		e.err = err
		s.err = fmt.Errorf("marshal WSDL for %s on %s: %w", def.Parameter.Name, server.Name(), err)
		return s
	}
	report, profiles := r.checkDoc(doc)
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
		// seeded analysis without needing the template proof). Seed
		// the representative's analysis from the in-memory document:
		// its serialized form just passed byte-for-byte verification,
		// so the serialize→re-parse round trip of the per-class path is
		// skipped — equivalence is proven at full scale by
		// TestDedupEquivalenceFull.
		s.svc.memo = e
		s.svc.analysis.once.Do(func() { s.svc.analysis.a = framework.AnalyzeDoc(doc) })
		e.rep = s.svc
	}
	return s
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

// testFor runs steps 2–3 for one (service × client) test, serving it
// from the shape memo when the service carries a verified entry, and
// returns the packed outcome code for the service's columnar row. The
// memoized outcome is computed by the shape's representative; because the columnar form carries no
// name-derived strings, a clone IS the memoized code with the
// executed bit cleared — the distinction the cell journal persists so
// resume can re-seed memo slots without double-running tests.
func (r *Runner) testFor(ctx context.Context, svc *PublishedService, ci int) outcomeCode {
	r.met.testTotal.Inc()
	e := svc.memo
	if e == nil {
		res := runTest(ctx, r.clients[ci], svc, r.cfg.Reparse, r.met)
		return encodeOutcome(&res, true)
	}
	r.dedup.testTotal.Add(1)
	tm := &e.tests[ci]
	ran := false
	tm.once.Do(func() {
		ran = true
		r.dedup.testRuns.Add(1)
		res := runTest(ctx, r.clients[ci], &e.rep, r.cfg.Reparse, r.met)
		tm.code = encodeOutcome(&res, true)
	})
	if !ran {
		r.met.testMemoized.Inc()
		return tm.code &^ codeExecuted
	}
	return tm.code
}
