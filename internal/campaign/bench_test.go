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

// BenchmarkAnalysisCache is the shared-analysis ablation (DESIGN.md
// §6.4): the scaled campaign with each published document parsed and
// analyzed once per service (cached) vs once per client test
// (reparse) — the two paths TestReparseEquivalence proves identical.
func BenchmarkAnalysisCache(b *testing.B) {
	for _, mode := range []struct {
		name    string
		reparse bool
	}{{"cached", false}, {"reparse", true}} {
		b.Run(mode.name, func(b *testing.B) {
			benchCampaign(b, config{Limit: benchLimit, reparse: mode.reparse})
		})
	}
}

// BenchmarkShapeDedup is the structural-shape memo ablation (DESIGN.md
// §6.6): the scaled campaign with the memo on (default) vs off (the
// noDedup hook) — the two paths TestDedupEquivalenceFull proves
// identical. The dedup run also reports the corpus's compression as
// classes per structural shape.
func BenchmarkShapeDedup(b *testing.B) {
	for _, mode := range []struct {
		name    string
		nodedup bool
	}{{"dedup", false}, {"nodedup", true}} {
		b.Run(mode.name, func(b *testing.B) {
			res := benchCampaign(b, config{Limit: benchLimit, noDedup: mode.nodedup})
			if stats := res.Dedup; stats.Enabled && stats.Shapes > 0 {
				b.ReportMetric(float64(stats.PublishTotal)/float64(stats.Shapes), "classes/shape")
			}
		})
	}
}
