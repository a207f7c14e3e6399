package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
)

func runVersions(t *testing.T, cfg config) *VersionResult {
	t.Helper()
	res, err := newRunner(cfg).RunVersions(context.Background())
	if err != nil {
		t.Fatalf("versions run: %v", err)
	}
	return res
}

// versionBytes serializes a VersionResult for byte comparison.
func versionBytes(t *testing.T, res *VersionResult) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal version result: %v", err)
	}
	return data
}

// TestVersionsScaled checks the matrix semantics on the default
// roster, whose three servers all declare StrictReject: pure 1.1
// accepts everywhere invocable, 1.2 and hybrid requests are refused
// with typed errors by every client, and the hybrid-fault wire is
// never reported as success — the coerce-strictness clients swallow
// it as silent-mishandle, everyone else surfaces the fault.
func TestVersionsScaled(t *testing.T) {
	res := runVersions(t, limitedConfig(robustLimit(80)))
	if len(res.ServerOrder) != 3 {
		t.Fatalf("servers = %v", res.ServerOrder)
	}
	if want := []string{"v11", "v12", "hybrid-headers", "hybrid-fault"}; !reflect.DeepEqual(res.Scenarios, want) {
		t.Fatalf("scenarios = %v, want %v", res.Scenarios, want)
	}

	totals := res.Totals()
	if totals.Cells == 0 {
		t.Fatal("no cells executed")
	}
	if sum := totals.Skipped + totals.Accepted + totals.Rejected + totals.Mishandled; sum != totals.Cells {
		t.Errorf("outcome buckets (%d) do not partition cells (%d)", sum, totals.Cells)
	}

	st := res.ScenarioTotals()
	exchanged := func(c *VersionCounts) int { return c.Cells - c.Skipped }

	// Pure 1.1 is the baseline: every exchanged cell accepts.
	if c := st["v11"]; c.Accepted != exchanged(c) || c.Rejected != 0 || c.Mishandled != 0 {
		t.Errorf("v11 column = %+v, want all %d exchanged cells accepted", c, exchanged(c))
	}
	// Against strict hosts, a 1.2 or hybrid request draws a
	// VersionMismatch fault that every client strictness surfaces.
	for _, name := range []string{"v12", "hybrid-headers"} {
		if c := st[name]; c.Rejected != exchanged(c) || c.Accepted != 0 || c.Mishandled != 0 {
			t.Errorf("%s column = %+v, want all %d exchanged cells typed-rejected", name, c, exchanged(c))
		}
	}
	// The headline acceptance property: a wire-relayed fault in the
	// wrong version vocabulary is never reported as success.
	hf := st["hybrid-fault"]
	if hf.Accepted != 0 {
		t.Errorf("hybrid-fault accepted cells = %d, want 0; column = %+v", hf.Accepted, hf)
	}
	if hf.Rejected == 0 || hf.Mishandled == 0 {
		t.Errorf("hybrid-fault column = %+v, want both typed rejects and mishandles on the mixed-strictness roster", hf)
	}

	// Mishandling is exactly the SilentCoerce clients' hybrid-fault
	// cells: a coerce client parses the 1.2 fault as data, everyone
	// else rejects it, and no other scenario mishandles on this
	// all-strict server roster.
	ns := len(res.Scenarios)
	for _, name := range res.ClientOrder {
		c := res.Clients[name]
		perScenario := exchanged(c) / ns
		want := 0
		if framework.VersionStrictness(name) == soap.SilentCoerce {
			want = perScenario
		}
		if c.Mishandled != want {
			t.Errorf("client %s: mishandled = %d, want %d (strictness %s)",
				name, c.Mishandled, want, framework.VersionStrictness(name))
		}
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

// TestVersionsShardMerge: two shard workers journal their slices, the
// coordinator merges, and the merged matrix equals a single-process
// run. PathCollisions is deploy-set-dependent bookkeeping (documented
// on MergeVersions) and is normalized out of the comparison.
func TestVersionsShardMerge(t *testing.T) {
	limit := robustLimit(37)
	const n = 2
	base := t.TempDir()
	dirs := make([]string, n)
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(base, "shard", string(rune('a'+i)))
		cfg := config{Limit: limit, Workers: 2, Checkpoint: dirs[i],
			Shard: ShardSpec{Index: i, Count: n}}
		if _, err := newRunner(cfg).RunVersions(context.Background()); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := MergeVersions(context.Background(), dirs, WithLimit(limit))
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	full := runVersions(t, config{Limit: limit, Workers: 4})
	merged.PathCollisions, full.PathCollisions = 0, 0
	if got, want := versionBytes(t, merged), versionBytes(t, full); string(got) != string(want) {
		t.Errorf("merged matrix differs from single-process run:\nmerged: %s\nfull:   %s", got, want)
	}

	// Merge guards: a drifted configuration is refused by fingerprint,
	// and a coordinator cannot itself be sharded.
	if _, err := MergeVersions(context.Background(), dirs, WithLimit(limit+1)); err == nil {
		t.Error("drifted merge configuration not refused")
	}
	if _, err := MergeVersions(context.Background(), dirs, WithLimit(limit),
		WithShard(ShardSpec{Index: 0, Count: n})); err == nil {
		t.Error("sharded coordinator not refused")
	}
}

// TestVersionsMergeRefusesIncomplete: a shard journal without its
// completion sentinels cannot be merged.
func TestVersionsMergeRefusesIncomplete(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config{Limit: 6, Workers: 2, Checkpoint: dir}
	cfg.checkpointProbe = func(appended int) {
		if appended == 1 {
			cancel()
		}
	}
	if _, err := newRunner(cfg).RunVersions(ctx); err == nil {
		// The tiny run may outrace the cancel; only an actually
		// interrupted journal exercises the guard.
		t.Skip("run completed before the kill point")
	}
	_, err := MergeVersions(context.Background(), []string{dir}, WithLimit(6))
	if err == nil || !strings.Contains(err.Error(), "resume the shard") {
		t.Errorf("incomplete merge error = %v, want completion refusal", err)
	}
}

// TestVersionsObservability: the serial fold lands the matrix in the
// campaign.versions.* counters exactly.
func TestVersionsObservability(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := newRunner(config{Limit: 2, Workers: 2, Obs: reg}).RunVersions(context.Background())
	if err != nil {
		t.Fatalf("versions: %v", err)
	}
	totals := res.Totals()
	for name, want := range map[string]int{
		"campaign.versions.skipped":          totals.Skipped,
		"campaign.versions.accepted":         totals.Accepted,
		"campaign.versions.typed_reject":     totals.Rejected,
		"campaign.versions.silent_mishandle": totals.Mishandled,
	} {
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s counter = %d, matrix says %d", name, got, want)
		}
	}
}

func TestVersionsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := newRunner(limitedConfig(300)).RunVersions(ctx); err == nil {
		t.Error("cancelled context should abort")
	}
}

// TestVersionOutcomeRoundTrip: the code name is the journal
// encoding, so it must parse back exactly.
func TestVersionOutcomeRoundTrip(t *testing.T) {
	for _, o := range []outcome{versionSkipped, versionAccepted, versionTypedReject, versionMishandled} {
		s := versionsAxis.codes[o]
		if s == "" || strings.HasPrefix(s, "Version") {
			t.Errorf("outcome %d has no friendly name: %q", o, s)
		}
		back, ok := versionsAxis.parse(s)
		if !ok || back != o {
			t.Errorf("parse(%q) = %v, %v; want %v", s, back, ok, o)
		}
	}
	if _, ok := versionsAxis.parse("bogus"); ok {
		t.Error("bogus outcome parsed")
	}
}
