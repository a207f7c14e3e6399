package campaign

import (
	"context"
	"testing"
)

// benchLimit caps per-catalog classes for the ablation benches, the
// scale of the root package's campaign benches.
const benchLimit = 300

// benchCampaign runs one scaled campaign per iteration and reports its
// throughput as tests/s, returning the last Result.
func benchCampaign(b *testing.B, cfg config) *Result {
	b.Helper()
	var res *Result
	tests := 0
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = newRunner(cfg).Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		tests += res.TotalTests
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(tests)/s, "tests/s")
	}
	return res
}

// benchReference builds the scaled campaign's Result on the test-side
// per-class reference (referenceResult) once per iteration, reporting
// tests/s like benchCampaign.
func benchReference(b *testing.B, bytePath bool) {
	b.Helper()
	tests := 0
	for i := 0; i < b.N; i++ {
		tests += referenceResult(b, config{Limit: benchLimit}, bytePath).TotalTests
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(tests)/s, "tests/s")
	}
}

// BenchmarkAnalysisCache prices the shared analysis (DESIGN.md §6.4):
// the scaled campaign in production (cached) vs the per-class reference
// with every client re-parsing the bytes per test (reparse) — the two
// paths TestReparseEquivalence proves identical.
func BenchmarkAnalysisCache(b *testing.B) {
	b.Run("cached", func(b *testing.B) { benchCampaign(b, config{Limit: benchLimit}) })
	b.Run("reparse", func(b *testing.B) { benchReference(b, true) })
}

// BenchmarkShapeDedup prices the structural-shape memo (DESIGN.md
// §6.6): the scaled campaign in production (dedup) vs the per-class
// reference with its shared analysis (nodedup) — the two paths
// TestDedupEquivalenceFull proves identical. The dedup run also
// reports the corpus's compression as classes per structural shape.
func BenchmarkShapeDedup(b *testing.B) {
	b.Run("dedup", func(b *testing.B) {
		res := benchCampaign(b, config{Limit: benchLimit})
		if stats := res.Dedup; stats.Shapes > 0 {
			b.ReportMetric(float64(stats.PublishTotal)/float64(stats.Shapes), "classes/shape")
		}
	})
	b.Run("nodedup", func(b *testing.B) { benchReference(b, false) })
}
