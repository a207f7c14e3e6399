package campaign

import (
	"time"

	"wsinterop/internal/obs"
	"wsinterop/internal/wsi"
)

// runnerMetrics caches the campaign's observability instruments so the
// per-cell hot paths pay atomic operations only, never a registry
// lookup. Every counter increment site is guarded by the same
// once-per-unit structure (publish slots, shape entries, test rows)
// that makes the Result deterministic, so counter values are
// identical across worker counts — the obs package determinism
// contract. A nil *runnerMetrics (only reachable through the exported
// RunTest convenience API) disables instrumentation.
type runnerMetrics struct {
	reg *obs.Registry

	// Per-stage latency histograms.
	publishSeconds *obs.Histogram // description generation (publish + marshal)
	wsiSeconds     *obs.Histogram // WS-I compliance check
	genSeconds     *obs.Histogram // client artifact generation, one span per test row
	compileSeconds *obs.Histogram // artifact compilation / verification, one span per test row
	commSeconds    *obs.Histogram // communication round trip (steps 4–5)

	// Stage counters.
	publishTotal    *obs.Counter // services routed through the description step
	publishRejected *obs.Counter // not deployable (excluded, the paper's optimistic assumption)
	publishMemoized *obs.Counter // served by the shape memo instead of a full publish
	publishFallback *obs.Counter // memo bypasses (hostile names, failed verification)
	wsiChecks       *obs.Counter // WS-I document checks executed
	wsiFlagged      *obs.Counter // checks that raised at least one finding
	wsiMemoized     *obs.Counter // verdicts served from the shape memo

	// profileCompliant counts folded services compliant with each
	// registered profile (campaign.wsi.profile.<id>.compliant), indexed
	// in roster order. Incremented only inside the study's serial fold
	// (foldStage), so the values obey the obs determinism contract like
	// every other fold counter.
	profileCompliant []*obs.Counter
	genRuns          *obs.Counter // artifact generations executed
	genErrors        *obs.Counter // generations classified as errors
	compileRuns      *obs.Counter // compilations executed
	compileErrors    *obs.Counter // compilations classified as errors
	testTotal        *obs.Counter // client tests routed (memoized or not)
	testMemoized     *obs.Counter // tests served by cloning a memoized outcome

	// Plan bookkeeping (plan.go).
	planBuilds *obs.Counter // plans built from a catalog walk
	planShared *obs.Counter // plans adopted from another runner (AdoptPlan)

	// wire maps a wire axis name to its per-outcome counters, and
	// memoized to its campaign.<axis>.memoized counter (cells copied
	// from their profile's representative), which the executor
	// increments only in its serial fold (wireaxis.go).
	wire     map[string][]*obs.Counter
	memoized map[string]*obs.Counter

	// Live gauges — outside the determinism contract.
	workers *obs.Gauge // configured worker count
}

// newRunnerMetrics resolves every instrument once.
func newRunnerMetrics(reg *obs.Registry) *runnerMetrics {
	if reg == nil {
		return nil
	}
	var profileCompliant []*obs.Counter
	for _, p := range wsi.Profiles() {
		profileCompliant = append(profileCompliant,
			reg.Counter("campaign.wsi.profile."+p.ID+".compliant"))
	}
	wire := make(map[string][]*obs.Counter, len(wireAxes))
	memoized := make(map[string]*obs.Counter, len(wireAxes))
	for _, ax := range wireAxes {
		for _, name := range ax.counters {
			wire[ax.name] = append(wire[ax.name], reg.Counter(name))
		}
		memoized[ax.name] = reg.Counter("campaign." + ax.name + ".memoized")
	}
	return &runnerMetrics{
		reg:              reg,
		publishSeconds:   reg.Histogram("campaign.publish.seconds"),
		wsiSeconds:       reg.Histogram("campaign.wsi.seconds"),
		genSeconds:       reg.Histogram("campaign.generate.seconds"),
		compileSeconds:   reg.Histogram("campaign.compile.seconds"),
		commSeconds:      reg.Histogram("campaign.communication.seconds"),
		publishTotal:     reg.Counter("campaign.publish.total"),
		publishRejected:  reg.Counter("campaign.publish.rejected"),
		publishMemoized:  reg.Counter("campaign.publish.memoized"),
		publishFallback:  reg.Counter("campaign.publish.fallbacks"),
		wsiChecks:        reg.Counter("campaign.wsi.checks"),
		wsiFlagged:       reg.Counter("campaign.wsi.flagged"),
		wsiMemoized:      reg.Counter("campaign.wsi.memoized"),
		profileCompliant: profileCompliant,
		genRuns:          reg.Counter("campaign.generate.runs"),
		genErrors:        reg.Counter("campaign.generate.errors"),
		compileRuns:      reg.Counter("campaign.compile.runs"),
		compileErrors:    reg.Counter("campaign.compile.errors"),
		testTotal:        reg.Counter("campaign.test.total"),
		testMemoized:     reg.Counter("campaign.test.memoized"),
		planBuilds:       reg.Counter("campaign.plan.builds"),
		planShared:       reg.Counter("campaign.plan.shared"),
		wire:             wire,
		memoized:         memoized,
		workers:          reg.Gauge("campaign.workers"),
	}
}

// now reads the registry clock; the zero time when metering is off.
func (m *runnerMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return m.reg.Now()
}

// since measures elapsed stage time on the registry clock.
func (m *runnerMetrics) since(start time.Time) time.Duration {
	if m == nil {
		return 0
	}
	return m.reg.Since(start)
}

// observe folds one stage latency into a histogram.
func (m *runnerMetrics) observe(h *obs.Histogram, start time.Time) {
	if m == nil {
		return
	}
	h.Observe(m.reg.Since(start))
}

// rowTally counts one test row's executed steps 2–3.
type rowTally struct{ gens, genErrs, compiles, compileErrs int64 }

// add counts one executed test's outcome code.
func (t *rowTally) add(c outcomeCode) {
	t.gens++
	if c&codeGenError != 0 {
		t.genErrs++
	}
	if c&codeCompileRan != 0 {
		t.compiles++
		if c&codeCompileError != 0 {
			t.compileErrs++
		}
	}
}

// creditRow is the ledger of one test row's generate and compile steps:
// their runs and errors, and each phase's span observed once per row
// that ran it. runRow passes the spans it measured; journal replay
// passes zero spans and a tally read from the executed bits.
func (m *runnerMetrics) creditRow(t rowTally, genSpan, compileSpan time.Duration) {
	if m == nil {
		return
	}
	if t.gens > 0 {
		m.genSeconds.Observe(genSpan)
		m.genRuns.Add(t.gens)
		m.genErrors.Add(t.genErrs)
	}
	if t.compiles > 0 {
		m.compileSeconds.Observe(compileSpan)
		m.compileRuns.Add(t.compiles)
		m.compileErrors.Add(t.compileErrs)
	}
}

// creditPublish is the publish-route ledger: the one place k publishes
// of one route (recordMode) credit the campaign.publish.* and
// campaign.wsi.* counters and the memo table's statistics. A route that
// executed its publish (fallback, built, memo-fallback; k is 1)
// also observes the publish span and, when it published, the WS-I check
// span. The live routes pass the spans they measured, the clone
// broadcast passes k clones, and journal replay passes zero spans.
func (r *Runner) creditPublish(mode recordMode, published, flagged bool, k int64, publishSpan, wsiSpan time.Duration) {
	m, d := r.met, r.dedup
	m.publishTotal.Add(k)
	if mode != modeFallback {
		d.pubTotal.Add(k)
	}
	switch mode {
	case modeFallback, modeMemoFallback:
		d.fallbacks.Add(k)
		m.publishFallback.Add(k)
	case modeBuilt:
		d.shapes.Add(k)
	case modeMemoRejected, modeMemoized:
		d.pubHits.Add(k)
		m.publishMemoized.Add(k)
		if published {
			m.wsiMemoized.Add(k)
		}
		return
	}
	m.publishSeconds.Observe(publishSpan)
	if !published {
		m.publishRejected.Add(k)
		return
	}
	m.wsiSeconds.Observe(wsiSpan)
	m.wsiChecks.Add(k)
	if flagged {
		m.wsiFlagged.Add(k)
	}
}

// creditSlot credits a completed live publish through the ledger. A
// failed one credits nothing: its error ends the stage.
func (r *Runner) creditSlot(s *publishSlot) {
	if s.err == nil {
		r.creditPublish(s.mode, s.ok, s.svc.Flagged, 1, s.publishSpan, s.wsiSpan)
	}
}

// creditTests is the test-row ledger: tests client tests routed, of
// which runs executed. Through the shape memo (memo) they count into
// the memo table's statistics, and the rest count as memo-served.
func (r *Runner) creditTests(memo bool, tests, runs int64) {
	r.met.testTotal.Add(tests)
	if memo {
		r.dedup.testTotal.Add(tests)
		r.dedup.testRuns.Add(runs)
		r.met.testMemoized.Add(tests - runs)
	}
}

// axisCounters returns a wire axis's per-outcome counters; nil
// (no-op) counters when metering is off.
func (m *runnerMetrics) axisCounters(ax *Axis) []*obs.Counter {
	if m == nil {
		return make([]*obs.Counter, len(ax.codes))
	}
	return m.wire[ax.name]
}

// axisMemoized returns a wire axis's memoized counter; a nil (no-op)
// counter when metering is off.
func (m *runnerMetrics) axisMemoized(ax *Axis) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.memoized[ax.name]
}
