package campaign

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"wsinterop/internal/faultinject"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// robustLimit shrinks the corpus in -short mode (the -race CI step)
// while keeping every test running — the fault matrix must stay
// exercised under the race detector.
func robustLimit(full int) int {
	if testing.Short() {
		return full / 3
	}
	return full
}

func TestRobustnessScaled(t *testing.T) {
	res, err := newRunner(limitedConfig(robustLimit(80))).RunRobustness(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.ServerOrder) != 3 {
		t.Fatalf("servers = %v", res.ServerOrder)
	}
	if len(res.Faults) != len(faultinject.Catalog()) {
		t.Fatalf("fault rows = %v", res.Faults)
	}

	totals := res.Totals()
	if totals.Cells == 0 {
		t.Fatal("no cells executed")
	}
	sum := totals.Skipped + totals.Detected + totals.Masked + totals.WrongSuccess + totals.Recovered
	if sum != totals.Cells {
		t.Errorf("outcome buckets (%d) do not partition cells (%d)", sum, totals.Cells)
	}

	// The headline acceptance property: after the status-blind fix, no
	// wire-signaled failure is ever reported as success.
	if totals.WrongSuccess != 0 {
		t.Errorf("wrong-success cells = %d, want 0; totals = %+v", totals.WrongSuccess, totals)
	}
	if totals.Detected == 0 {
		t.Error("hard faults should be detected")
	}
	if totals.Recovered == 0 {
		t.Error("the transient abort-once fault should be recovered by retry")
	}
	if totals.Masked == 0 {
		t.Error("the benign faults (wrong content type, delay) should be masked")
	}

	// Per-fault expectations on this corpus.
	ft := res.FaultTotals()
	exchanged := func(c *RobustCounts) int { return c.Cells - c.Skipped }
	for _, name := range []string{"truncate", "html-error", "status-500", "empty-body", "oversize", "dup-child", "rename-child", "abort"} {
		c := ft[name]
		if c.Detected != exchanged(c) {
			t.Errorf("%s: detected = %d, want %d (every exchanged cell)", name, c.Detected, exchanged(c))
		}
	}
	for _, name := range []string{"wrong-content-type", "delay"} {
		c := ft[name]
		if c.Masked != exchanged(c) {
			t.Errorf("%s: masked = %d, want %d (benign fault)", name, c.Masked, exchanged(c))
		}
	}
	if c := ft["abort-once"]; c.Recovered != exchanged(c) {
		t.Errorf("abort-once: recovered = %d, want %d", c.Recovered, exchanged(c))
	}

	// The per-client breakdown re-sums to the matrix totals.
	var clientCells int
	for _, name := range res.ClientOrder {
		clientCells += res.Clients[name].Cells
	}
	if clientCells != totals.Cells {
		t.Errorf("client cells (%d) != matrix cells (%d)", clientCells, totals.Cells)
	}
}

// TestRobustnessDeterministicAcrossWorkers is the acceptance criterion
// for the matrix: scheduling must never change a cell.
func TestRobustnessDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *RobustResult {
		res, err := newRunner(config{Limit: robustLimit(60), Workers: workers}).RunRobustness(context.Background())
		if err != nil {
			t.Fatalf("run (workers=%d): %v", workers, err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("matrix differs between 1 and 8 workers:\nserial:   %+v\nparallel: %+v",
			serial.Totals(), parallel.Totals())
	}
}

// TestRobustnessReparseEquivalence checks the cache ablation: routing
// WSDL analysis through the shared cache or re-parsing bytes per cell
// must produce the same matrix.
func TestRobustnessReparseEquivalence(t *testing.T) {
	run := func(reparse bool) *RobustResult {
		res, err := newRunner(config{Limit: robustLimit(60), Workers: 4, reparse: reparse}).RunRobustness(context.Background())
		if err != nil {
			t.Fatalf("run (reparse=%v): %v", reparse, err)
		}
		return res
	}
	if cached, reparsed := run(false), run(true); !reflect.DeepEqual(cached, reparsed) {
		t.Errorf("matrix differs between shared-analysis and reparse modes:\ncached:   %+v\nreparsed: %+v",
			cached.Totals(), reparsed.Totals())
	}
}

func TestRobustnessCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := newRunner(limitedConfig(300)).RunRobustness(ctx); err == nil {
		t.Error("cancelled context should abort")
	}
}

func TestRobustOutcomeString(t *testing.T) {
	for _, o := range []outcome{robustSkipped, robustDetected, robustMasked, robustWrongSuccess, robustRecovered} {
		if s := robustAxis.codes[o]; s == "" || s[0] == 'R' {
			t.Errorf("outcome %d has no friendly name: %q", o, s)
		}
	}
}

// TestClassifyRobustWrongSuccessGuards exercises the two wrong-success
// triggers directly: success against a MustError fault, and a
// well-shaped echo whose probe value was corrupted.
func TestClassifyRobustWrongSuccessGuards(t *testing.T) {
	shape := func(probe string) *robustExchange {
		return &robustExchange{
			resp:      &soap.Message{Local: "echoResponse", Fields: map[string]string{"input": probe}},
			wantLocal: "echoResponse", sent: map[string]string{"input": "ping"},
			probeField: "input",
		}
	}
	mustErr := faultinject.Fault{Name: "status-500", MustError: true}
	if got := classifyRobust(mustErr, 1, shape("ping"), nil); got != robustWrongSuccess {
		t.Errorf("success against MustError fault = %v, want wrong-success", got)
	}
	benign := faultinject.Fault{Name: "dup-value", MustError: false}
	if got := classifyRobust(benign, 1, shape("pingx"), nil); got != robustWrongSuccess {
		t.Errorf("corrupted probe echo = %v, want wrong-success", got)
	}
	if got := classifyRobust(benign, 1, shape("ping"), nil); got != robustMasked {
		t.Errorf("clean benign exchange = %v, want masked", got)
	}
	if got := classifyRobust(benign, 2, shape("ping"), nil); got != robustRecovered {
		t.Errorf("multi-attempt success = %v, want recovered", got)
	}
}

// TestOversizeCellAllocationBound is the allocation regression guard
// of the oversize row: a cell runs two attempts under the robustness
// retry policy, each padding a response past the 1 MiB read budget.
// The bound is a quarter of one copy of the padding, so any path that
// copies the filler or buffers the refused response fails it.
func TestOversizeCellAllocationBound(t *testing.T) {
	const cells, perCell = 50, 256 << 10
	host := transport.NewHost()
	if err := host.Deploy(&transport.Endpoint{
		Path: "/svc", Namespace: "urn:test",
		Operations: map[string]string{"echo": "echoResponse"},
	}); err != nil {
		t.Fatal(err)
	}
	injector := faultinject.New(host)
	req := &soap.Message{Namespace: "urn:test", Local: "echo",
		Fields: map[string]string{"input": "ping"}}
	cell := func() {
		attempts := 0
		bridge := transport.NewLocalBridge(injector).
			WithRetry(robustRetryPolicy(string(faultinject.KindOversize), &attempts))
		_, err := bridge.Invoke(context.Background(), "/svc", req)
		var de *soap.DecodeError
		if !errors.As(err, &de) || attempts != 2 {
			t.Fatalf("oversize cell: attempts %d, error %v; want 2 attempts ending in a *soap.DecodeError", attempts, err)
		}
	}
	cell() // builds the shared filler once

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cells; i++ {
		cell()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / cells; got >= perCell {
		t.Errorf("oversize cell allocates %d bytes, want < %d", got, perCell)
	}
}
