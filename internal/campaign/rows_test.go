package campaign

// Tests for the static study's plan-grain and row-grain bookkeeping:
// one shape partition per catalog, one test row per shape run under one
// once and timed per stage, and the lazy seeding that lets a resumed
// wire stage reuse a study the journal finished.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsinterop/internal/obs"
	"wsinterop/internal/typesys"
)

func histogramCount(snap *obs.Snapshot, name string) int64 {
	for _, h := range snap.Histograms {
		if h.Name == name {
			return int64(h.Count)
		}
	}
	return 0
}

// TestStudyClockReads counts the study's clock reads: a publish and a
// WS-I check read the clock twice each, a test row three times (start,
// generate end, compile end), a server stage twice — and a test
// nothing of its own, so the reads are O(rows + publishes), not
// O(tests).
func TestStudyClockReads(t *testing.T) {
	var reads atomic.Int64
	fixed := time.Unix(1700000000, 0)
	reg := obs.NewRegistryWithClock(func() time.Time {
		reads.Add(1)
		return fixed
	})
	r := newRunner(config{Limit: 60, Workers: 4, Obs: reg})
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	publishes := histogramCount(snap, "campaign.publish.seconds")
	checks := histogramCount(snap, "campaign.wsi.seconds")
	rows := histogramCount(snap, "campaign.generate.seconds")
	tests := counterValue(snap, "campaign.generate.runs")
	bound := 2*publishes + 2*checks + 3*rows + 2*int64(len(r.servers))
	t.Logf("%d clock reads: %d publishes, %d WS-I checks, %d rows, %d tests executed (bound %d)",
		reads.Load(), publishes, checks, rows, tests, bound)
	if got := reads.Load(); got > bound {
		t.Errorf("study read the clock %d times, want <= %d (2 per publish and WS-I check, 3 per row, 2 per stage)", got, bound)
	}
	// Every executed row belongs to a service some publish built, so the
	// row count is bounded by the publishes and far below the tests.
	if rows > publishes || rows*2 > tests {
		t.Errorf("%d rows for %d publishes and %d executed tests: the generate histogram is not per row", rows, publishes, tests)
	}
}

// TestRowRunsOncePerClient races study rows against wire verdicts on
// every memoized shape of a Publish: each (shape, client) test must run
// exactly once, every caller must read the same outcomes, and at most
// one study row per shape may carry executed bits — all of them or
// none, when a wire verdict ran the row first.
func TestRowRunsOncePerClient(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRunner(config{Limit: 30, Workers: 4, Obs: reg})
	nc := len(r.clients)
	type call struct {
		svc   *PublishedService
		codes []outcomeCode // a study row, or nil for a wire verdict
		ci    int
		code  outcomeCode
	}
	var calls []*call
	entries := make(map[*shapeEntry]bool)
	for _, server := range r.servers {
		published, _, err := r.Publish(context.Background(), server)
		if err != nil {
			t.Fatal(err)
		}
		for i := range published {
			svc := &published[i]
			if svc.memo == nil {
				continue
			}
			entries[svc.memo] = true
			for k := 0; k < 2; k++ {
				calls = append(calls, &call{svc: svc, codes: make([]outcomeCode, nc)})
			}
			for ci := 0; ci < nc; ci++ {
				calls = append(calls, &call{svc: svc, ci: ci})
			}
		}
	}
	if len(entries) == 0 {
		t.Fatal("no memoized service published")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range calls {
		wg.Add(1)
		go func(c *call) {
			defer wg.Done()
			<-start
			if c.codes != nil {
				r.testRow(c.svc, c.codes)
			} else {
				c.code = r.verdict(c.svc, c.ci)
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if got, want := counterValue(reg.Snapshot(), "campaign.generate.runs"), int64(nc*len(entries)); got != want {
		t.Errorf("generate runs = %d, want %d (%d shapes × %d clients, each once)", got, want, len(entries), nc)
	}
	executed := make(map[*shapeEntry]int)
	for _, c := range calls {
		row := c.svc.memo.row.codes
		if c.codes == nil {
			if c.code != row[c.ci] {
				t.Errorf("%s: verdict %d = %#x, row holds %#x", c.svc.Class, c.ci, c.code, row[c.ci])
			}
			continue
		}
		for ci, code := range c.codes {
			if code&^codeExecuted != row[ci]&^codeExecuted {
				t.Errorf("%s: study row client %d = %#x, memo row holds %#x", c.svc.Class, ci, code, row[ci])
			}
			if code.executed() {
				executed[c.svc.memo]++
			}
		}
	}
	for e, n := range executed {
		if n != nc {
			t.Errorf("shape of %s: study rows carry %d executed bits, want %d (one row) or 0", e.rep.Class, n, nc)
		}
	}
}

// TestPlanSharesCorpus checks that servers of one language share one
// shape partition — the Java catalog is grouped once for both Java
// servers — that the shared partition is exactly what each server
// would have grouped alone, and that the full-scale plan summary keeps
// its published rows.
func TestPlanSharesCorpus(t *testing.T) {
	r := newRunner(config{Workers: 2})
	p, err := r.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	var java []*serverPlan
	for _, server := range r.servers {
		sp := p.servers[server.Name()]
		if server.Language() == typesys.Java {
			java = append(java, sp)
		}
		alone := r.partition(sp.defs)
		if !reflect.DeepEqual(alone.Groups, sp.Groups) || !reflect.DeepEqual(alone.Loose, sp.Loose) {
			t.Errorf("%s: the shared partition differs from the server's own grouping", sp.Server)
		}
	}
	if len(java) != 2 {
		t.Fatalf("%d Java servers in the roster, want 2", len(java))
	}
	a, b := java[0], java[1]
	if &a.Groups[0] != &b.Groups[0] || &a.defs[0] != &b.defs[0] ||
		&a.Groups[0].Members[0] != &b.Groups[0].Members[0] {
		t.Errorf("%s and %s hold separate partitions of the Java catalog", a.Server, b.Server)
	}
	sum, err := r.PlanSummary()
	if err != nil {
		t.Fatal(err)
	}
	want := []PlanServerSummary{
		{Server: "Metro", Classes: 3971, Shapes: 1505, Clones: 2466},
		{Server: "JBossWS CXF", Classes: 3971, Shapes: 1505, Clones: 2466},
		{Server: "WCF .NET", Classes: 14082, Shapes: 1846, Clones: 12236},
	}
	if !reflect.DeepEqual(sum.Servers, want) {
		t.Errorf("plan summary rows = %+v, want %+v", sum.Servers, want)
	}
	if sum.Classes != 22024 || sum.Shapes != 4856 || sum.Clones != 17168 || sum.Unsafe != 0 || sum.Loose != 0 {
		t.Errorf("plan summary totals = %d classes, %d shapes, %d clones, %d unsafe, %d loose; want 22024, 4856, 17168, 0, 0",
			sum.Classes, sum.Shapes, sum.Clones, sum.Unsafe, sum.Loose)
	}
}

// TestPlanAllocs pins the allocations of a cold full-scale plan build
// (two workers): the traits pass allocates per catalog, not per class —
// no heap buffer per fingerprint, no per-group member slices.
func TestPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := newRunner(config{Workers: 2}).PlanSummary(); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 361 to 364, with the traits pass's goroutines.
	if allocs > 550 {
		t.Errorf("cold plan: %.0f allocs, want <= 550", allocs)
	}
	t.Logf("cold plan: %.0f allocs", allocs)
}

// TestResumedWireStageSeedsFinishedShapes resumes a communication run
// whose study journal finished but whose wire journal is gone: the wire
// stage must seed the finished shapes from their journaled builders, so
// the resumed run checks, tests and counts exactly what the fresh run
// did.
func TestResumedWireStageSeedsFinishedShapes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	run := func(resume bool) *obs.Snapshot {
		t.Helper()
		cfg := config{Limit: 60, Workers: 4, Obs: frozenRegistry(), Checkpoint: dir, Resume: resume}
		r := newRunner(cfg)
		if _, err := r.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunCommunication(ctx); err != nil {
			t.Fatal(err)
		}
		return r.Metrics()
	}
	fresh := run(false)
	if err := os.RemoveAll(filepath.Join(dir, commAxis.name)); err != nil {
		t.Fatal(err)
	}
	resumed := run(true)
	for _, name := range []string{"campaign.wsi.checks", "campaign.generate.runs"} {
		if a, b := counterValue(fresh, name), counterValue(resumed, name); a != b {
			t.Errorf("%s: fresh %d, resumed %d", name, a, b)
		}
	}
	compareSnapshots(t, "resumed wire stage", fresh, resumed)
}
