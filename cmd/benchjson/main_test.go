package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline stores a trajectory holding the given tests/s entries,
// recorded at GOMAXPROCS 2.
func writeBaseline(t *testing.T, entries map[string]float64) string {
	t.Helper()
	traj := Trajectory{Recorded: "2026-01-01T00:00:00Z", Gomaxprocs: 2, Workers: 2}
	for name, v := range entries {
		traj.Benchmarks = append(traj.Benchmarks, Benchmark{
			Name: name, Iterations: 3, Metrics: map[string]float64{"tests/s": v}})
	}
	data, err := json.Marshal(traj)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_campaign.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func parseRun(t *testing.T, out string) *Trajectory {
	t.Helper()
	traj, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// TestCheckComparesLikeWithLike: a capped run is checked only against
// the capped baseline entry, and a baseline without one is refused
// rather than compared with the full-scale number.
func TestCheckComparesLikeWithLike(t *testing.T) {
	capped := parseRun(t, "BenchmarkFullCampaign/limit=300-2 3 100 ns/op 600000 tests/s\n")
	if got := capped.Benchmarks[0].Name; got != "FullCampaign/limit=300" {
		t.Fatalf("capped run name = %q, want FullCampaign/limit=300", got)
	}

	fullOnly := writeBaseline(t, map[string]float64{"FullCampaign": 300000})
	err := checkRegression(capped, fullOnly, "FullCampaign", "tests/s", 0.10)
	if err == nil || !strings.Contains(err.Error(), "FullCampaign/limit=300 not found") {
		t.Errorf("capped run against a full-scale-only baseline: err = %v, want a missing-entry refusal", err)
	}

	both := writeBaseline(t, map[string]float64{"FullCampaign": 300000, "FullCampaign/limit=300": 650000})
	if err := checkRegression(capped, both, "FullCampaign", "tests/s", 0.10); err != nil {
		t.Errorf("600k vs a 650k baseline within 10%%: %v", err)
	}
	if err := checkRegression(capped, both, "FullCampaign", "tests/s", 0.05); err == nil ||
		!strings.Contains(err.Error(), "regressed") {
		t.Errorf("600k vs a 650k baseline at 5%% tolerance: err = %v, want a regression", err)
	}

	full := parseRun(t, "BenchmarkFullCampaign-2 3 100 ns/op 310000 tests/s\n")
	if err := checkRegression(full, both, "FullCampaign", "tests/s", 0.10); err != nil {
		t.Errorf("full-scale run against its own entry: %v", err)
	}
	if err := checkRegression(full, both, "Fig4Campaign", "tests/s", 0.10); err == nil {
		t.Error("a run without the checked benchmark must fail")
	}
}

// TestCheckRefusesOtherCoreCounts: a run at another GOMAXPROCS than
// the baseline's is refused, naming both, even when its number would
// pass.
func TestCheckRefusesOtherCoreCounts(t *testing.T) {
	base := writeBaseline(t, map[string]float64{"FullCampaign/limit=300": 650000})
	for _, tc := range []struct{ out, procs string }{
		{"BenchmarkFullCampaign/limit=300-4 3 100 ns/op 900000 tests/s\n", "gomaxprocs 4"},
		{"BenchmarkFullCampaign/limit=300 3 100 ns/op 900000 tests/s\n", "gomaxprocs 1"},
	} {
		err := checkRegression(parseRun(t, tc.out), base, "FullCampaign", "tests/s", 0.10)
		if err == nil || !strings.Contains(err.Error(), tc.procs) || !strings.Contains(err.Error(), "gomaxprocs 2") {
			t.Errorf("run at %s against a gomaxprocs 2 baseline: err = %v, want a refusal naming both", tc.procs, err)
		}
	}
	same := parseRun(t, "BenchmarkFullCampaign/limit=300-2 3 100 ns/op 640000 tests/s\n")
	if err := checkRegression(same, base, "FullCampaign", "tests/s", 0.10); err != nil {
		t.Errorf("run at the baseline's gomaxprocs: %v", err)
	}
}

// TestRepeatedRunsFoldToMedian: the lines of a -count N run become one
// entry holding each metric's median, in first-appearance order.
func TestRepeatedRunsFoldToMedian(t *testing.T) {
	traj := parseRun(t, `BenchmarkFullCampaign/limit=300-2 20 100 ns/op 600000 tests/s
BenchmarkPlan/cold-2 3 5 ns/op
BenchmarkFullCampaign/limit=300-2 20 100 ns/op 700000 tests/s
BenchmarkFullCampaign/limit=300-2 20 100 ns/op 500000 tests/s
BenchmarkFullCampaign/limit=300-2 20 100 ns/op 650000 tests/s
`)
	if len(traj.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %+v, want the repeats folded into one entry", traj.Benchmarks)
	}
	got := traj.Benchmarks[0]
	if got.Name != "FullCampaign/limit=300" || got.Runs != 4 || got.Metrics["tests/s"] != 625000 {
		t.Errorf("folded entry = %+v, want FullCampaign/limit=300 over 4 runs at the 625000 tests/s median", got)
	}
	if single := traj.Benchmarks[1]; single.Name != "Plan/cold" || single.Runs != 0 {
		t.Errorf("single run = %+v, want Plan/cold without a run count", single)
	}
}
