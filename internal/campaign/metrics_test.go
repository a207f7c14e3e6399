package campaign

import (
	"context"
	"reflect"
	"testing"
	"time"

	"wsinterop/internal/obs"
)

// frozenRegistry pins the registry clock, so every stage duration
// observes as zero and histograms become worker-independent — the
// precondition of the metrics determinism contract.
func frozenRegistry() *obs.Registry {
	fixed := time.Unix(1700000000, 0)
	return obs.NewRegistryWithClock(func() time.Time { return fixed })
}

// metricsSnapshot runs the static campaign plus both extensions at the
// given worker count on a frozen clock and exports the registry.
func metricsSnapshot(t *testing.T, workers int) *obs.Snapshot {
	t.Helper()
	reg := frozenRegistry()
	r := newRunner(config{Limit: 2, Workers: workers, Obs: reg})
	ctx := context.Background()
	if _, err := r.Run(ctx); err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	if _, err := r.RunCommunication(ctx); err != nil {
		t.Fatalf("communication (workers=%d): %v", workers, err)
	}
	if _, err := r.RunRobustness(ctx); err != nil {
		t.Fatalf("robustness (workers=%d): %v", workers, err)
	}
	if _, err := r.RunVersions(ctx); err != nil {
		t.Fatalf("versions (workers=%d): %v", workers, err)
	}
	return reg.Snapshot()
}

// TestMetricsDeterministicAcrossWorkers is the acceptance check for the
// observability layer: counters are exact and histograms (on a frozen
// clock) identical at any worker count. Gauges — the worker count —
// are live state and explicitly outside the contract.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	serial := metricsSnapshot(t, 1)
	parallel := metricsSnapshot(t, 8)
	if !reflect.DeepEqual(serial.Counters, parallel.Counters) {
		t.Errorf("counters differ across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
			serial.Counters, parallel.Counters)
	}
	if !reflect.DeepEqual(serial.Histograms, parallel.Histograms) {
		t.Errorf("histograms differ across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
			serial.Histograms, parallel.Histograms)
	}
}

func counterValue(snap *obs.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

func TestResultCarriesMetrics(t *testing.T) {
	r := newRunner(config{Limit: 2, Workers: 2})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics is nil")
	}
	for _, name := range []string{
		"campaign.publish.total", "campaign.wsi.checks",
		"campaign.generate.runs", "campaign.compile.runs", "campaign.test.total",
	} {
		if v := counterValue(res.Metrics, name); v <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, v)
		}
	}
	found := false
	for _, h := range res.Metrics.Histograms {
		if h.Name == "campaign.generate.seconds" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("campaign.generate.seconds histogram empty or missing")
	}
}

// TestCommunicationTraceJoin proves the communication events join on
// their content-addressed trace IDs: every event's trace recomputes
// from its (server, class, client) coordinates. The cell's sniffer
// feeds the same registry.
func TestCommunicationTraceJoin(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRunner(config{Limit: 2, Workers: 2, Obs: reg})
	if _, err := r.RunCommunication(context.Background()); err != nil {
		t.Fatalf("communication: %v", err)
	}
	if reg.Counter("sniffer.exchanges").Value() == 0 {
		t.Error("sniffer not wired to the runner registry")
	}
	cells := 0
	for _, e := range reg.Events() {
		if e.Stage != "communication" {
			continue
		}
		cells++
		if want := obs.TraceID(e.Server, e.Class, e.Client); e.Trace != want {
			t.Errorf("event trace %q does not recompute from (%s, %s, %s): want %q",
				e.Trace, e.Server, e.Class, e.Client, want)
		}
	}
	if cells == 0 {
		t.Error("no communication events emitted")
	}
}

// TestRobustnessObservability proves the fault-injection middleware and
// the retrying bridges feed the runner registry: faults fire and are
// counted, the transient abort provokes retries, and the outcome fold
// lands in the robustness counters.
func TestRobustnessObservability(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRunner(config{Limit: 2, Workers: 2, Obs: reg})
	res, err := r.RunRobustness(context.Background())
	if err != nil {
		t.Fatalf("robustness: %v", err)
	}
	if reg.Counter("faultinject.injected").Value() == 0 {
		t.Error("no injected faults counted")
	}
	if reg.Counter("transport.retries").Value() == 0 {
		t.Error("no retries counted — the abort-once fault should provoke them")
	}
	totals := res.Totals()
	if got := reg.Counter("campaign.robust.detected").Value(); got != int64(totals.Detected) {
		t.Errorf("robust.detected counter = %d, matrix says %d", got, totals.Detected)
	}
	if got := reg.Counter("campaign.robust.recovered").Value(); got != int64(totals.Recovered) {
		t.Errorf("robust.recovered counter = %d, matrix says %d", got, totals.Recovered)
	}
}
