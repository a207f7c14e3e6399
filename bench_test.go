package wsinterop

// Benchmark harness: one benchmark per paper artifact (DESIGN.md §5)
// plus the ablation benches of DESIGN.md §6 and per-stage
// micro-benchmarks.
//
// The experiment benches (E1–E3) run the campaign at a reduced scale
// (benchLimit classes per catalog) so the suite completes quickly;
// BenchmarkFullCampaign executes the complete 79 629-test study —
// expect ~15 s per iteration — and is the definitive regenerator for
// Fig. 4 and Table III (also available as `go run ./cmd/interop`).

import (
	"context"
	"io"
	"os"
	"strconv"
	"testing"
	"time"

	"wsinterop/internal/campaign"
	"wsinterop/internal/framework"
	"wsinterop/internal/report"
	"wsinterop/internal/services"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
)

// benchLimit caps per-catalog classes for the scaled campaign benches.
const benchLimit = 300

func runCampaign(b *testing.B, cfg campaign.Config) *campaign.Result {
	b.Helper()
	res, err := campaign.NewRunner(cfg).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// reportTestsPerSec attaches the campaign throughput metric so the
// bench trajectory tracks tests/s alongside ns/op.
func reportTestsPerSec(b *testing.B, totalTests int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(totalTests)/s, "tests/s")
	}
}

// BenchmarkFig4Campaign regenerates the Fig. 4 overview (experiment
// E1) at benchmark scale.
func BenchmarkFig4Campaign(b *testing.B) {
	tests := 0
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, campaign.Config{Limit: benchLimit})
		tests += res.TotalTests
		if err := report.Fig4(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
	reportTestsPerSec(b, tests)
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
			tests := 0
			for i := 0; i < b.N; i++ {
				res := runCampaign(b, campaign.Config{Limit: benchLimit, Reparse: mode.reparse})
				tests += res.TotalTests
			}
			reportTestsPerSec(b, tests)
		})
	}
}

// BenchmarkShapeDedup is the structural-shape memo ablation (DESIGN.md
// §6.6): the scaled campaign with the memo on (default) vs off
// (Config.NoDedup, the -dedup=false CLI ablation) — the two paths
// TestDedupEquivalenceFull proves identical. The dedup run also
// reports the corpus's compression as classes per structural shape.
func BenchmarkShapeDedup(b *testing.B) {
	for _, mode := range []struct {
		name    string
		nodedup bool
	}{{"dedup", false}, {"nodedup", true}} {
		b.Run(mode.name, func(b *testing.B) {
			tests := 0
			var stats campaign.DedupStats
			for i := 0; i < b.N; i++ {
				res := runCampaign(b, campaign.Config{Limit: benchLimit, NoDedup: mode.nodedup})
				tests += res.TotalTests
				stats = *res.Dedup
			}
			reportTestsPerSec(b, tests)
			if stats.Enabled && stats.Shapes > 0 {
				b.ReportMetric(float64(stats.PublishTotal)/float64(stats.Shapes), "classes/shape")
			}
		})
	}
}

// BenchmarkTableIII regenerates the Table III matrix (experiment E2)
// at benchmark scale.
func BenchmarkTableIII(b *testing.B) {
	tests := 0
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, campaign.Config{Limit: benchLimit})
		tests += res.TotalTests
		if err := report.TableIII(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
	reportTestsPerSec(b, tests)
}

// BenchmarkPlan measures execution-plan resolution at full study scale
// (DESIGN.md §12): a cold build walks every catalog and hashes all
// 22 024 classes. The sub-benchmark keeps its historical name so the
// BENCH_campaign.json trajectory stays comparable.
func BenchmarkPlan(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := campaign.New().PlanSummary(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFindings regenerates the §IV headline statistics
// (experiment E3) at benchmark scale.
func BenchmarkFindings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, campaign.Config{Limit: benchLimit})
		if err := report.Findings(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullCampaign executes the complete study — 22 024 services,
// 79 629 tests — and is the full-scale regenerator for E1–E3.
// FULLCAMPAIGN_LIMIT caps classes per catalog for CI's reduced-catalog
// regression guard (make bench-check); unset, the complete study runs.
func BenchmarkFullCampaign(b *testing.B) {
	limit := 0
	if s := os.Getenv("FULLCAMPAIGN_LIMIT"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("FULLCAMPAIGN_LIMIT=%q: %v", s, err)
		}
		limit = n
	}
	cfg := campaign.Config{Limit: limit}
	// Resolve the execution plan once and share it across iterations:
	// the steady state of any process running repeated campaigns (the
	// -serve daemon adopts plans the same way). Plan resolution itself
	// is measured separately by BenchmarkPlan.
	plan, err := campaign.NewRunner(cfg).ExecutionPlan()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	tests := 0
	for i := 0; i < b.N; i++ {
		r := campaign.NewRunner(cfg)
		if err := r.AdoptPlan(plan); err != nil {
			b.Fatal(err)
		}
		res, err := r.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if limit == 0 && res.TotalTests != 79629 {
			b.Fatalf("tests = %d, want 79629", res.TotalTests)
		}
		tests += res.TotalTests
	}
	reportTestsPerSec(b, tests)
}

// BenchmarkServiceDescriptionGeneration measures the description step
// over the full catalogs (experiment E4: the 22 024 → 7 239 filter).
func BenchmarkServiceDescriptionGeneration(b *testing.B) {
	r := campaign.NewRunner(campaign.Config{})
	servers := framework.Servers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		published := 0
		for _, s := range servers {
			p, _, err := r.Publish(context.Background(), s)
			if err != nil {
				b.Fatal(err)
			}
			published += len(p)
		}
		if published != 7239 {
			b.Fatalf("published = %d, want 7239", published)
		}
	}
}

// BenchmarkDrilldowns runs the §IV.B narrative services through all
// eleven clients (experiment E5).
func BenchmarkDrilldowns(b *testing.B) {
	type pair struct {
		server framework.ServerFramework
		class  string
	}
	pairs := []pair{
		{framework.NewMetroServer(), typesys.JavaW3CEndpointReference},
		{framework.NewMetroServer(), typesys.JavaSimpleDateFormat},
		{framework.NewJBossWSServer(), typesys.JavaResponse},
		{framework.NewMetroServer(), typesys.JavaXMLGregorianCalendar},
		{framework.NewWCFServer(), typesys.CSharpDataTable},
		{framework.NewWCFServer(), typesys.CSharpSocketError},
	}
	type job struct {
		svc campaign.PublishedService
	}
	var jobs []job
	for _, p := range pairs {
		cat := typesys.JavaCatalog()
		if p.server.Language() == typesys.CSharp {
			cat = typesys.CSharpCatalog()
		}
		cls, ok := cat.Lookup(p.class)
		if !ok {
			b.Fatalf("class %s missing", p.class)
		}
		doc, err := p.server.Publish(services.ForClass(cls))
		if err != nil {
			b.Fatalf("publish %s: %v", p.class, err)
		}
		raw, err := wsdl.Marshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, job{campaign.PublishedService{Server: p.server.Name(), Class: p.class, Doc: raw}})
	}
	clients := framework.Clients()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			for _, c := range clients {
				campaign.RunTest(c, j.svc)
			}
		}
	}
}

// BenchmarkCommunication measures a live SOAP echo round trip
// (experiment E6 — the paper's future-work extension).
func BenchmarkCommunication(b *testing.B) {
	cat := typesys.JavaCatalog()
	var cls *typesys.Class
	for i := range cat.Classes {
		if cat.Classes[i].Kind == typesys.KindBean && cat.Classes[i].Hints == 0 {
			cls = &cat.Classes[i]
			break
		}
	}
	doc, err := framework.NewMetroServer().Publish(services.ForClass(cls))
	if err != nil {
		b.Fatal(err)
	}
	host := transport.NewHost()
	ep, err := host.DeployWSDL(doc)
	if err != nil {
		b.Fatal(err)
	}
	base, err := host.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = host.Shutdown(ctx)
	}()
	client := transport.NewClient(nil)
	req := &soap.Message{
		Namespace: ep.Namespace, Local: "echo",
		Fields: map[string]string{"input": "bench"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(context.Background(), base+ep.Path, "", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComplexityVariants runs the scaled campaign at each service
// interface complexity (the paper's future-work extension): the error
// picture is class-driven, so variants cost only emission/parse time.
func BenchmarkComplexityVariants(b *testing.B) {
	for _, v := range services.Variants() {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCampaign(b, campaign.Config{Limit: benchLimit, Variant: v})
			}
		})
	}
}

// BenchmarkCommunicationCampaign measures the communication/execution
// extension (steps 4–5) at benchmark scale.
func BenchmarkCommunicationCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := campaign.NewRunner(campaign.Config{Limit: benchLimit})
		if _, err := r.RunCommunication(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignParallelism is the DESIGN.md §6.1 ablation: the
// scaled campaign with one worker vs the full pool.
func BenchmarkCampaignParallelism(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "pool"
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCampaign(b, campaign.Config{Limit: benchLimit, Workers: workers})
			}
		})
	}
}

// benchNarrativeDoc publishes and serializes one document for the
// per-stage micro-benchmarks.
func benchNarrativeDoc(b *testing.B) ([]byte, *wsdl.Definitions) {
	b.Helper()
	cls, ok := typesys.CSharpCatalog().Lookup(typesys.CSharpDataTable)
	if !ok {
		b.Fatal("DataTable missing")
	}
	doc, err := framework.NewWCFServer().Publish(services.ForClass(cls))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := wsdl.Marshal(doc)
	if err != nil {
		b.Fatal(err)
	}
	return raw, doc
}

// BenchmarkWSICheck is the DESIGN.md §6.2 ablation: cost of the early
// compliance check per document.
func BenchmarkWSICheck(b *testing.B) {
	_, doc := benchNarrativeDoc(b)
	checker := wsi.NewChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.Check(doc)
	}
}

// BenchmarkWSDLRoundTrip is the DESIGN.md §6.3 ablation: the cost of
// handing documents between subsystems as serialized XML.
func BenchmarkWSDLRoundTrip(b *testing.B) {
	_, doc := benchNarrativeDoc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := wsdl.Marshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wsdl.Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWSDLMarshal measures serialization alone.
func BenchmarkWSDLMarshal(b *testing.B) {
	_, doc := benchNarrativeDoc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wsdl.Marshal(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWSDLUnmarshal measures parsing alone.
func BenchmarkWSDLUnmarshal(b *testing.B) {
	raw, _ := benchNarrativeDoc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wsdl.Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientGeneration measures the artifact generation step per
// client family on one representative document.
func BenchmarkClientGeneration(b *testing.B) {
	raw, _ := benchNarrativeDoc(b)
	for _, c := range framework.Clients() {
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Generate(raw)
			}
		})
	}
}

// BenchmarkCompile measures the artifact verification step on a unit
// that compiles with warnings (Axis2 on a case-colliding type).
func BenchmarkCompile(b *testing.B) {
	raw, _ := benchNarrativeDoc(b)
	client := framework.NewAxis2Client()
	gen := client.Generate(raw)
	if gen.Unit == nil {
		b.Fatal("generation failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Verify(gen.Unit)
	}
}

// BenchmarkSOAPRoundTrip measures envelope encode+decode without HTTP.
func BenchmarkSOAPRoundTrip(b *testing.B) {
	msg := &soap.Message{
		Namespace: "http://bench.test/", Local: "echo",
		Fields: map[string]string{"input": "payload", "count": "7"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := soap.V11.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := soap.V11.Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogConstruction measures Preparation Phase catalog
// synthesis (both platforms).
func BenchmarkCatalogConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Use the internal builders indirectly: Generate walks every
		// class of the shared catalogs.
		if n := len(services.Generate(typesys.JavaCatalog())); n != typesys.JavaTotal {
			b.Fatalf("java services = %d", n)
		}
		if n := len(services.Generate(typesys.CSharpCatalog())); n != typesys.CSharpTotal {
			b.Fatalf("csharp services = %d", n)
		}
	}
}
