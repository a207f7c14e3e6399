package campaign

// Tests for the durable checkpoint/resume engine (checkpoint.go,
// internal/journal): a campaign killed at any journaled boundary and
// resumed must produce a byte-identical Result, DeepEqual dedup stats,
// and DeepEqual metrics counters/histograms versus an uninterrupted
// run — at any worker count on either side of the kill.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/journal/journaltest"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
)

// resumeConfig is the campaign configuration under test. KeepFailures
// exercises the failure-index path through replay; the frozen-clock
// registry makes histograms comparable.
func resumeConfig(limit, workers int) config {
	return config{Limit: limit, Workers: workers, KeepFailures: true, Obs: frozenRegistry()}
}

// interruptAt runs a checkpointed campaign that cancels its context
// once the journal holds killAt records — the cooperative-drain
// equivalent of SIGINT at that boundary. killAt 0 cancels before any
// cell; killAt < 0 lets the run complete (the 100% journal case).
func interruptAt(t *testing.T, cfg config, dir string, killAt int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Checkpoint = dir
	switch {
	case killAt == 0:
		cancel()
	case killAt > 0:
		cfg.checkpointProbe = func(appended int) {
			if appended == killAt {
				cancel()
			}
		}
	}
	res, err := newRunner(cfg).Run(ctx)
	if killAt < 0 {
		if err != nil {
			t.Fatalf("uninterrupted checkpointed run: %v", err)
		}
		if res == nil {
			t.Fatal("uninterrupted checkpointed run returned nil result")
		}
		return
	}
	// A cancellation racing the end of the run may still complete; any
	// other error is a failure. Either way the journal must be resumable.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	if killAt > 0 && err == nil {
		t.Fatalf("run completed before reaching kill point %d", killAt)
	}
}

// resume re-runs the campaign from the journal in dir and returns the
// Result plus the resumed session's metrics snapshot.
func resume(t *testing.T, cfg config, dir string) (*Result, *obs.Snapshot) {
	t.Helper()
	cfg.Checkpoint, cfg.Resume = dir, true
	reg := frozenRegistry()
	cfg.Obs = reg
	res, err := newRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return res, reg.Snapshot()
}

// resultBytes serializes a Result for byte comparison. Metrics is
// excluded: it is compared structurally (minus journal bookkeeping) by
// compareSnapshots, since journal.* counters exist only on
// checkpointed runs.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	clone := *res
	clone.Metrics = nil
	data, err := json.Marshal(&clone)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return data
}

// stripJournal drops the journal.* bookkeeping counters: how many
// cells were resumed versus executed necessarily differs between a
// resumed and a clean run. Like gauges, they are attribution, not
// campaign outcome, and sit outside the determinism contract.
func stripJournal(counters []obs.CounterSnapshot) []obs.CounterSnapshot {
	kept := make([]obs.CounterSnapshot, 0, len(counters))
	for _, c := range counters {
		if strings.HasPrefix(c.Name, "journal.") {
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

func compareSnapshots(t *testing.T, label string, clean, resumed *obs.Snapshot) {
	t.Helper()
	if a, b := stripJournal(clean.Counters), stripJournal(resumed.Counters); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: counters differ:\nclean:   %+v\nresumed: %+v", label, a, b)
	}
	if !reflect.DeepEqual(clean.Histograms, resumed.Histograms) {
		t.Errorf("%s: histograms differ:\nclean:   %+v\nresumed: %+v", label, clean.Histograms, resumed.Histograms)
	}
}

// runResumeMatrix is the shared kill-point matrix: for each worker
// count, interrupt at 0%, ~25%, ~75%, and 100% of the journal and
// verify the resumed run reproduces the clean baseline exactly.
func runResumeMatrix(t *testing.T, limit int) {
	cleanCfg := resumeConfig(limit, 4)
	cleanReg := cleanCfg.Obs
	clean, err := newRunner(cleanCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cleanBytes := resultBytes(t, clean)
	cleanSnap := cleanReg.Snapshot()
	// One journal record per created service cell.
	totalCells := clean.TotalServices

	for _, workers := range []int{1, 8} {
		for _, frac := range []float64{0, 0.25, 0.75, 1} {
			killAt := int(frac * float64(totalCells))
			if frac == 1 {
				killAt = -1 // run to completion, resume replays everything
			} else if frac > 0 && killAt == 0 {
				killAt = 1
			}
			name := fmt.Sprintf("workers=%d/kill=%d%%", workers, int(frac*100))
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				interruptAt(t, resumeConfig(limit, workers), dir, killAt)
				res, snap := resume(t, resumeConfig(limit, workers), dir)

				compareResults(t, clean, res)
				if !reflect.DeepEqual(clean.Dedup, res.Dedup) {
					t.Errorf("dedup stats differ:\nclean:   %+v\nresumed: %+v", clean.Dedup, res.Dedup)
				}
				if !reflect.DeepEqual(clean.Failures, res.Failures) {
					t.Errorf("failure index differs: clean %d entries, resumed %d",
						len(clean.Failures), len(res.Failures))
				}
				if got := resultBytes(t, res); string(got) != string(cleanBytes) {
					t.Error("serialized Result is not byte-identical to the clean run")
				}
				compareSnapshots(t, name, cleanSnap, snap)
			})
		}
	}
}

func TestResumeEquivalenceScaled(t *testing.T) {
	runResumeMatrix(t, 150)
}

// TestResumeEquivalenceFull is the acceptance check at full study
// scale: 22 024 service cells, killed at several journal sizes under
// workers 1 and 8, resumed, and compared byte-for-byte.
func TestResumeEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale resume equivalence skipped in -short mode")
	}
	cleanCfg := resumeConfig(0, 0)
	clean, err := newRunner(cleanCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.TotalServices != 22024 {
		t.Fatalf("TotalServices = %d, want the study's 22024", clean.TotalServices)
	}
	cleanBytes := resultBytes(t, clean)
	cleanSnap := cleanCfg.Obs.Snapshot()
	totalCells := clean.TotalServices

	for _, workers := range []int{1, 8} {
		for _, frac := range []float64{0.25, 0.75} {
			killAt := int(frac * float64(totalCells))
			name := fmt.Sprintf("workers=%d/kill=%d", workers, killAt)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				interruptAt(t, resumeConfig(0, workers), dir, killAt)
				res, snap := resume(t, resumeConfig(0, workers), dir)
				compareResults(t, clean, res)
				if !reflect.DeepEqual(clean.Dedup, res.Dedup) {
					t.Errorf("dedup stats differ:\nclean:   %+v\nresumed: %+v", clean.Dedup, res.Dedup)
				}
				if got := resultBytes(t, res); string(got) != string(cleanBytes) {
					t.Error("serialized Result is not byte-identical to the clean run")
				}
				compareSnapshots(t, name, cleanSnap, snap)
			})
		}
	}
}

// TestResumeSurvivesSecondInterruption kills a run, resumes, kills the
// resumed run further in, and resumes again — journals written across
// sessions must merge into one consistent store.
func TestResumeSurvivesSecondInterruption(t *testing.T) {
	// Large enough that the first session's drain (up to the journal
	// writer's 256-record buffer plus the items in flight) cannot reach
	// the end of the campaign.
	const limit = 400
	cleanCfg := resumeConfig(limit, 4)
	clean, err := newRunner(cleanCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	totalCells := clean.TotalServices

	dir := t.TempDir()
	interruptAt(t, resumeConfig(limit, 8), dir, totalCells/4)
	// The first session drains the records its workers had already
	// queued when the kill landed, so under load it journals well past
	// 25%. Aim the second kill at half of what is actually left, or a
	// fixed target could lie beyond what the second session appends.
	_, recs, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("load first session's journal: %v", err)
	}
	left := totalCells - len(recs)
	if left < 1 {
		t.Fatalf("first session journaled all %d cells; nothing left to interrupt", totalCells)
	}
	// Second session: resume AND interrupt again deeper in.
	{
		cfg := resumeConfig(limit, 8)
		cfg.Checkpoint, cfg.Resume = dir, true
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.checkpointProbe = func(appended int) {
			// appended counts this session only.
			if appended == (left+1)/2 {
				cancel()
			}
		}
		if _, err := newRunner(cfg).Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("second interruption: err = %v, want context.Canceled", err)
		}
	}
	res, snap := resume(t, resumeConfig(limit, 2), dir)
	compareResults(t, clean, res)
	if !reflect.DeepEqual(clean.Dedup, res.Dedup) {
		t.Errorf("dedup stats differ after double interruption:\nclean:   %+v\nresumed: %+v", clean.Dedup, res.Dedup)
	}
	compareSnapshots(t, "double-interruption", cleanCfg.Obs.Snapshot(), snap)
}

// TestResumeAfterTornJournalTail appends a half-written frame to the
// journal (the hard-kill torn-write scenario) and verifies resume still converges
// to the clean Result: the torn cell is simply re-executed.
func TestResumeAfterTornJournalTail(t *testing.T) {
	const limit = 100
	clean, err := newRunner(resumeConfig(limit, 4)).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	dir := t.TempDir()
	interruptAt(t, resumeConfig(limit, 4), dir, clean.TotalServices/2)
	journaltest.AppendTorn(t, dir)
	res, _ := resume(t, resumeConfig(limit, 4), dir)
	compareResults(t, clean, res)
}

// TestResumeChecksConfiguration: a journal must only resume under the
// configuration that wrote it, and the CLI-facing misuse modes fail
// loudly instead of corrupting state.
func TestResumeChecksConfiguration(t *testing.T) {
	dir := t.TempDir()
	interruptAt(t, resumeConfig(60, 4), dir, 10)

	cfg := resumeConfig(80, 4) // different Limit → different cell set
	cfg.Checkpoint, cfg.Resume = dir, true
	if _, err := newRunner(cfg).Run(context.Background()); err == nil {
		t.Error("resume under a different configuration should fail")
	}

	cfg = resumeConfig(60, 4) // same config, but no -resume
	cfg.Checkpoint = dir
	if _, err := newRunner(cfg).Run(context.Background()); err == nil {
		t.Error("fresh checkpoint into a used directory should fail")
	}

	cfg = resumeConfig(60, 4) // Resume without Checkpoint
	cfg.Resume = true
	if _, err := newRunner(cfg).Run(context.Background()); err == nil {
		t.Error("Resume without Checkpoint should fail")
	}

	// Worker count is intentionally outside the fingerprint: resuming a
	// workers=4 journal at workers=1 must work (proven equivalent by the
	// matrix tests; here just prove it is accepted).
	okCfg := resumeConfig(60, 1)
	okCfg.Checkpoint, okCfg.Resume = dir, true
	if _, err := newRunner(okCfg).Run(context.Background()); err != nil {
		t.Errorf("resume at a different worker count: %v", err)
	}
}

// TestHookJournalRefused: a study -resume under a drifted campaign
// configuration is refused with journal.ErrFingerprint instead of
// replaying cells another configuration produced. Every fingerprinted
// part of the configuration is drifted in turn; the undrifted resume
// closing the table still succeeds.
func TestHookJournalRefused(t *testing.T) {
	dir := t.TempDir()
	base := []Option{WithLimit(2), WithWorkers(2), WithCheckpoint(dir)}
	if _, err := New(base...).Run(context.Background()); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	ivoa, ok := wsi.Lookup("ivoa")
	if !ok {
		t.Fatal("no ivoa profile registered")
	}
	for _, drift := range []struct {
		name string
		opt  Option
	}{
		{"limit", WithLimit(3)},
		{"variant", WithVariant(services.VariantNested)},
		{"style", WithStyle(wsdl.StyleRPC)},
		{"profile", WithChecker(wsi.NewChecker(wsi.WithProfile(ivoa)))},
		{"catalog", WithCatalog(func(lang typesys.Language) *typesys.Catalog {
			return newRunner(config{}).catalog(lang)
		})},
		{"clients", WithClients(framework.Clients()[:3]...)},
	} {
		t.Run(drift.name, func(t *testing.T) {
			opts := append(append([]Option(nil), base...), WithResume(), drift.opt)
			_, err := New(opts...).Run(context.Background())
			if !errors.Is(err, journal.ErrFingerprint) {
				t.Errorf("resume under a drifted %s: err = %v, want journal.ErrFingerprint", drift.name, err)
			}
		})
	}
	if _, err := New(append(base, WithResume())...).Run(context.Background()); err != nil {
		t.Errorf("undrifted resume: %v", err)
	}
}

// TestRunContextAndOptions covers the construction surface: the
// functional-option constructor against the struct the options fill,
// and Run under a cancelled context.
func TestRunContextAndOptions(t *testing.T) {
	res, err := newRunner(config{Limit: 2, Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatalf("struct-built Run: %v", err)
	}
	if res.TotalTests == 0 {
		t.Error("struct-built Run produced an empty result")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(WithLimit(2)).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Run with cancelled context: err = %v, want context.Canceled", err)
	}

	reg := frozenRegistry()
	r := New(
		WithLimit(2),
		WithWorkers(2),
		WithKeepFailures(),
		WithObs(reg),
	)
	optRes, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("New(...).Run: %v", err)
	}
	if optRes.TotalTests != res.TotalTests {
		t.Errorf("option-built runner: %d tests, struct-built: %d", optRes.TotalTests, res.TotalTests)
	}
	if r.Obs() != reg {
		t.Error("WithObs registry not installed")
	}
	if r.Metrics() == nil {
		t.Error("Runner.Metrics returned nil")
	}

	// Checkpoint options round-trip through a real journaled run.
	dir := t.TempDir()
	if _, err := New(WithLimit(2), WithCheckpoint(dir)).Run(context.Background()); err != nil {
		t.Fatalf("New with WithCheckpoint: %v", err)
	}
	res2, err := New(WithLimit(2), WithCheckpoint(dir), WithResume()).Run(context.Background())
	if err != nil {
		t.Fatalf("New with WithResume: %v", err)
	}
	if res2.TotalTests != res.TotalTests {
		t.Errorf("resumed option runner: %d tests, want %d", res2.TotalTests, res.TotalTests)
	}
}

// TestResumeEmitsEvents: a resumed run announces replayed stages on
// the observability event stream.
func TestResumeEmitsEvents(t *testing.T) {
	dir := t.TempDir()
	interruptAt(t, resumeConfig(40, 4), dir, 20)
	cfg := resumeConfig(40, 4)
	cfg.Checkpoint, cfg.Resume = dir, true
	reg := cfg.Obs
	if _, err := newRunner(cfg).Run(context.Background()); err != nil {
		t.Fatalf("resume: %v", err)
	}
	found := false
	for _, e := range reg.Events() {
		if e.Stage == "resume" {
			found = true
			if !strings.Contains(e.Detail, "replayed from journal") {
				t.Errorf("resume event detail = %q", e.Detail)
			}
		}
	}
	if !found {
		t.Error("no resume events emitted")
	}
	if reg.Counter("journal.cells.resumed").Value() == 0 {
		t.Error("journal.cells.resumed counter is zero after a resume")
	}
}

// routeCatalogs is a small custom catalog that takes every publish
// route of the study journal: Widget builds a shape that Gizmo clones,
// 9Lives shares the shape but its name fails the WS-I substitution
// predicates (memo-fallback), Wïdget fails the shape.Memoizable guard
// (fallback), and Hidden/Hidden2 are one undeployable shape (built,
// then memo-rejected). The C# catalog is one bean.
func routeCatalogs(t *testing.T) func(lang typesys.Language) *typesys.Catalog {
	t.Helper()
	bean := func(name string) string {
		return `{"name":"` + name + `","kind":"bean","fields":[{"name":"value","kind":"string"}]}`
	}
	java, err := typesys.ImportJSON([]byte(`{"language":"Java","classes":[` +
		bean("com.acme.Widget") + `,` + bean("com.acme.Gizmo") + `,` +
		bean("com.acme.9Lives") + `,` + bean("com.acme.Wïdget") + `,` +
		`{"name":"com.acme.Hidden","kind":"interface"},{"name":"com.acme.Hidden2","kind":"interface"}]}`))
	if err != nil {
		t.Fatalf("import Java catalog: %v", err)
	}
	cs, err := typesys.ImportJSON([]byte(`{"language":"C#","classes":[` + bean("Acme.Gadget") + `]}`))
	if err != nil {
		t.Fatalf("import C# catalog: %v", err)
	}
	return func(lang typesys.Language) *typesys.Catalog {
		if lang == typesys.Java {
			return java
		}
		return cs
	}
}

// TestResumeEveryRoute kills a checkpointed run of the route catalog at
// every journal record and resumes it, at workers 1 and 4, and merges
// 2- and 3-way shard splits: each must reproduce the clean run's Result
// bytes, dedup statistics and frozen-clock metrics. The catalog takes
// every route, so replay and merge see every record mode:
// built, memoized, memo-rejected, memo-fallback and fallback.
func TestResumeEveryRoute(t *testing.T) {
	catalogs := routeCatalogs(t)
	cfgFor := func(workers int) config {
		cfg := resumeConfig(0, workers)
		cfg.CatalogFor = catalogs
		return cfg
	}
	// The subtest keeps the name it had when the route catalog also ran
	// with the shape memo switched off: it is the memoized configuration,
	// the only one production has.
	t.Run("noDedup=false", func(t *testing.T) {
		cleanCfg := cfgFor(1)
		clean, err := newRunner(cleanCfg).Run(context.Background())
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		cleanBytes, cleanSnap := resultBytes(t, clean), cleanCfg.Obs.Snapshot()
		same := func(label string, res *Result, snap *obs.Snapshot) {
			t.Helper()
			if got := resultBytes(t, res); string(got) != string(cleanBytes) {
				t.Errorf("%s: serialized Result differs from the clean run", label)
			}
			if !reflect.DeepEqual(clean.Dedup, res.Dedup) {
				t.Errorf("%s: dedup stats differ:\nclean:   %+v\nresumed: %+v", label, clean.Dedup, res.Dedup)
			}
			compareSnapshots(t, label, cleanSnap, snap)
		}

		// The clean journal must hold every route.
		full := t.TempDir()
		interruptAt(t, cfgFor(1), full, -1)
		_, recs, err := journal.Load(full)
		if err != nil {
			t.Fatal(err)
		}
		modes := map[string]bool{}
		for _, rec := range recs {
			modes[rec.Mode] = true
		}
		for m := modeFallback; int(m) < len(modeIDs); m++ {
			if !modes[m.id()] {
				t.Errorf("the route catalog journaled no %q record (modes %v)", m.id(), modes)
			}
		}

		for _, workers := range []int{1, 4} {
			for killAt := 0; killAt <= 14; killAt++ {
				dir := t.TempDir()
				interruptAt(t, cfgFor(workers), dir, killAt)
				res, snap := resume(t, cfgFor(workers), dir)
				same(fmt.Sprintf("workers=%d/kill=%d", workers, killAt), res, snap)
			}
		}

		for _, n := range []int{2, 3} {
			base := t.TempDir()
			dirs := make([]string, n)
			for i := range dirs {
				dirs[i] = filepath.Join(base, fmt.Sprintf("shard%d", i))
				cfg := cfgFor(2)
				cfg.Shard, cfg.Checkpoint = ShardSpec{Index: i, Count: n}, dirs[i]
				if _, err := newRunner(cfg).Run(context.Background()); err != nil {
					t.Fatalf("shard %d/%d: %v", i, n, err)
				}
			}
			cfg := cfgFor(2)
			m, err := newRunner(cfg).Merge(context.Background(), dirs)
			if err != nil {
				t.Fatalf("merge %d shards: %v", n, err)
			}
			same(fmt.Sprintf("merge=%d", n), m.Study, cfg.Obs.Snapshot())
		}
	})
}
