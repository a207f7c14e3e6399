package campaign

import (
	"time"

	"wsinterop/internal/obs"
	"wsinterop/internal/wsi"
)

// runnerMetrics caches the campaign's observability instruments so the
// per-cell hot paths pay atomic operations only, never a registry
// lookup. Every counter increment site is guarded by the same
// once-per-unit structure (publish slots, shape entries, test memo
// slots) that makes the Result deterministic, so counter values are
// identical across worker counts — the obs package determinism
// contract. A nil *runnerMetrics (only reachable through the exported
// RunTest convenience API) disables instrumentation.
type runnerMetrics struct {
	reg *obs.Registry

	// Per-stage latency histograms.
	publishSeconds *obs.Histogram // description generation (publish + marshal)
	wsiSeconds     *obs.Histogram // WS-I compliance check
	genSeconds     *obs.Histogram // client artifact generation
	compileSeconds *obs.Histogram // artifact compilation / verification
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
	// in roster order. Incremented only inside the deterministic
	// classification fold (foldCodes), so the values obey the obs
	// determinism contract like every other fold counter.
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

	// wire maps a wire axis name to its per-outcome counters, which
	// the executor increments only in its serial fold (wireaxis.go).
	wire map[string][]*obs.Counter

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
	for _, ax := range wireAxes {
		for _, name := range ax.counters {
			wire[ax.name] = append(wire[ax.name], reg.Counter(name))
		}
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

// recordGen folds one artifact-generation run and returns the stage
// boundary it stamped, so the caller can start the next stage on the
// same clock read instead of taking another.
func (m *runnerMetrics) recordGen(start time.Time, errored bool) time.Time {
	if m == nil {
		return time.Time{}
	}
	end := m.reg.Now()
	m.genSeconds.Observe(end.Sub(start))
	m.genRuns.Inc()
	if errored {
		m.genErrors.Inc()
	}
	return end
}

// recordCompile folds one compilation run.
func (m *runnerMetrics) recordCompile(start time.Time, errored bool) {
	if m == nil {
		return
	}
	m.compileSeconds.Observe(m.reg.Since(start))
	m.compileRuns.Inc()
	if errored {
		m.compileErrors.Inc()
	}
}

// axisCounters returns a wire axis's per-outcome counters; nil
// (no-op) counters when metering is off.
func (m *runnerMetrics) axisCounters(ax *wireAxis) []*obs.Counter {
	if m == nil {
		return make([]*obs.Counter, len(ax.codes))
	}
	return m.wire[ax.name]
}
