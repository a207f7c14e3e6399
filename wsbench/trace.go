package main

import (
	"time"

	"wsinterop/internal/obs"
)

// layerMetrics are the per-layer metrics of a traced run, in report
// order, with their units. Every traced run prints all of them; a layer
// that does no work on a workload reads 0 there (README.md lists which
// layer works on which workload).
var layerMetrics = []struct{ name, unit string }{
	{"typesys.catalog_s", "s"},
	{"plan.build_s", "s"},
	{"plan.classes_per_shape", "ratio"},
	{"publish.busy_s", "s"},
	{"publish.runs", "count"},
	{"publish.memo_share", "ratio"},
	{"wsi.busy_s", "s"},
	{"wsi.checks", "count"},
	{"wsi.memo_share", "ratio"},
	{"wsi.message_checks", "count"},
	{"wsi.message_violations", "count"},
	{"generate.busy_s", "s"},
	{"generate.runs", "count"},
	{"generate.error_share", "ratio"},
	{"test.memo_share", "ratio"},
	{"compile.busy_s", "s"},
	{"compile.runs", "count"},
	{"compile.error_share", "ratio"},
	{"campaign.unattributed_share", "ratio"},
	{"report.render_s", "s"},
	{"report.bytes", "bytes"},
	{"journal.run_s", "s"},
	{"journal.overhead_s", "s"},
	{"journal.bytes", "bytes"},
	{"journal.compactions", "count"},
	{"journal.resume_s", "s"},
	{"journal.cells_resumed", "count"},
	{"mode.comm_s", "s"},
	{"mode.robust_s", "s"},
	{"mode.versions_s", "s"},
	{"transport.invoke_busy_s", "s"},
	{"transport.attempts", "count"},
	{"transport.retries", "count"},
	{"transport.retry_share", "ratio"},
	{"transport.error_share", "ratio"},
	{"transport.errors.fault", "count"},
	{"transport.errors.http", "count"},
	{"transport.errors.decode", "count"},
	{"transport.errors.version", "count"},
	{"transport.errors.aborted", "count"},
	{"faultinject.injected", "count"},
	{"robust.cells", "count"},
	{"robust.detected", "count"},
	{"robust.masked", "count"},
	{"robust.recovered", "count"},
	{"robust.wrong_success", "count"},
	{"robust.skipped", "count"},
	{"versions.cells", "count"},
	{"versions.accepted", "count"},
	{"versions.typed_reject", "count"},
	{"versions.silent_mishandle", "count"},
	{"versions.skipped", "count"},
	{"soap.roundtrip_us", "us"},
	{"gc.cpu_share", "ratio"},
	{"alloc.objects", "count"},
	{"trace.overhead_share", "ratio"},
}

// trace collects one traced iteration's spans and layer values. The
// spans wrap the program's public entry points from the benchmark's
// side; the layer values come from the program's own obs registry,
// read through campaign.WithObs. A nil *trace is an untraced
// iteration: every method is a no-op, so workloads call them
// unconditionally.
type trace struct {
	vals map[string]float64
}

func newTrace() *trace { return &trace{vals: make(map[string]float64)} }

// span starts timing a call and returns the function that ends it,
// adding the elapsed seconds to the named value.
func (t *trace) span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.vals[name] += time.Since(start).Seconds() }
}

// set records a layer value.
func (t *trace) set(name string, v float64) {
	if t != nil {
		t.vals[name] = v
	}
}

// get reads a recorded value (0 when absent or untraced).
func (t *trace) get(name string) float64 {
	if t == nil {
		return 0
	}
	return t.vals[name]
}

// registry returns a fresh obs registry for one runner of a traced
// iteration, so its snapshot holds exactly that runner's work; nil when
// untraced, which campaign.New treats as "use a private registry".
func (t *trace) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return obs.NewRegistry()
}

// snapshot indexes a registry snapshot by instrument name.
type snapshot struct {
	counters map[string]float64
	sums     map[string]float64 // histogram sums, seconds
	counts   map[string]float64 // histogram observation counts
}

func readRegistry(reg *obs.Registry) snapshot {
	s := snapshot{
		counters: make(map[string]float64),
		sums:     make(map[string]float64),
		counts:   make(map[string]float64),
	}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		s.counters[c.Name] = float64(c.Value)
	}
	for _, h := range snap.Histograms {
		s.sums[h.Name] = time.Duration(h.SumNanos).Seconds()
		s.counts[h.Name] = float64(h.Count)
	}
	return s
}

// share divides, reading 0 for an empty base.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// layers derives the registry-backed layer values of one runner. wall
// is the summed wall time of the entry points the runner executed, and
// stages names the latency histograms that attribute that wall: the
// campaign.unattributed_share is the part of workers × wall that none
// of them covers (fold, scheduling, journal and, where no histogram
// exists, the unattributed stages themselves).
func (t *trace) layers(reg *obs.Registry, wall float64, workers int, stages ...string) {
	if t == nil {
		return
	}
	s := readRegistry(reg)
	c := s.counters
	t.set("publish.busy_s", s.sums["campaign.publish.seconds"])
	t.set("publish.runs", s.counts["campaign.publish.seconds"])
	t.set("publish.memo_share", share(c["campaign.publish.memoized"], c["campaign.publish.total"]))
	t.set("wsi.busy_s", s.sums["campaign.wsi.seconds"])
	t.set("wsi.checks", c["campaign.wsi.checks"])
	t.set("wsi.memo_share", share(c["campaign.wsi.memoized"], c["campaign.wsi.checks"]+c["campaign.wsi.memoized"]))
	// The sniffer checks the request and the response of every exchange.
	t.set("wsi.message_checks", 2*c["sniffer.exchanges"])
	t.set("wsi.message_violations", c["sniffer.violations"])
	t.set("generate.busy_s", s.sums["campaign.generate.seconds"])
	t.set("generate.runs", c["campaign.generate.runs"])
	t.set("generate.error_share", share(c["campaign.generate.errors"], c["campaign.generate.runs"]))
	t.set("test.memo_share", share(c["campaign.test.memoized"], c["campaign.test.total"]))
	t.set("compile.busy_s", s.sums["campaign.compile.seconds"])
	t.set("compile.runs", c["campaign.compile.runs"])
	t.set("compile.error_share", share(c["campaign.compile.errors"], c["campaign.compile.runs"]))

	t.set("transport.invoke_busy_s", s.sums["transport.invoke.seconds"])
	t.set("transport.attempts", c["transport.attempts"])
	t.set("transport.retries", c["transport.retries"])
	t.set("transport.retry_share", share(c["transport.retries"], c["transport.attempts"]))
	errs := 0.0
	for _, kind := range []string{"fault", "http", "decode", "version", "aborted", "other"} {
		n := c["transport.errors."+kind]
		errs += n
		if kind != "other" {
			t.set("transport.errors."+kind, n)
		}
	}
	t.set("transport.error_share", share(errs, c["transport.attempts"]))
	t.set("faultinject.injected", c["faultinject.injected"])

	busy := 0.0
	for _, h := range stages {
		busy += s.sums[h]
	}
	t.set("campaign.unattributed_share", 1-share(busy, float64(workers)*wall))
}
