package wsinterop

// Benchmark harness: one benchmark per paper artifact (DESIGN.md §5)
// plus the ablation benches of DESIGN.md §6 and per-stage
// micro-benchmarks. The analysis-cache and shape-memo ablations run
// through test hooks, so their benches live in internal/campaign.
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

func runCampaign(b *testing.B, opts ...campaign.Option) *campaign.Result {
	b.Helper()
	res, err := campaign.New(opts...).Run(context.Background())
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
		res := runCampaign(b, campaign.WithLimit(benchLimit))
		tests += res.TotalTests
		if err := report.Fig4(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
	reportTestsPerSec(b, tests)
}

// BenchmarkTableIII regenerates the Table III matrix (experiment E2)
// at benchmark scale.
func BenchmarkTableIII(b *testing.B) {
	tests := 0
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, campaign.WithLimit(benchLimit))
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
		res := runCampaign(b, campaign.WithLimit(benchLimit))
		if err := report.Findings(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullCampaign executes the complete study — 22 024 services,
// 79 629 tests — and is the full-scale regenerator for E1–E3.
// FULLCAMPAIGN_LIMIT caps classes per catalog for CI's reduced-catalog
// regression guard (make bench-check); unset, the complete study runs.
// A capped run reports as FullCampaign/limit=N, so its numbers are
// never mistaken for (or compared with) the full-scale ones.
func BenchmarkFullCampaign(b *testing.B) {
	s := os.Getenv("FULLCAMPAIGN_LIMIT")
	if s == "" {
		benchFullCampaign(b, 0)
		return
	}
	limit, err := strconv.Atoi(s)
	if err != nil || limit <= 0 {
		b.Fatalf("FULLCAMPAIGN_LIMIT=%q: want a positive class count", s)
	}
	b.Run("limit="+s, func(b *testing.B) { benchFullCampaign(b, limit) })
}

// benchFullCampaign runs the campaign at a classes-per-catalog cap;
// 0 is the complete study.
func benchFullCampaign(b *testing.B, limit int) {
	// Resolve the execution plan once and share it across iterations:
	// the steady state of any process running repeated campaigns (the
	// -serve daemon adopts plans the same way). Plan resolution itself
	// is measured separately by BenchmarkPlan.
	plan, err := campaign.New(campaign.WithLimit(limit)).ExecutionPlan()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	tests := 0
	for i := 0; i < b.N; i++ {
		r := campaign.New(campaign.WithLimit(limit))
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
	r := campaign.New()
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

// echoService deploys the echo service Metro publishes for the first
// plain bean of the Java catalog, whose echo operation takes one
// field, and returns the host and the one-field echo request.
func echoService(tb testing.TB) (*transport.Host, *transport.Endpoint, *soap.Message) {
	tb.Helper()
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
		tb.Fatal(err)
	}
	host := transport.NewHost()
	ep, err := host.DeployWSDL(doc)
	if err != nil {
		tb.Fatal(err)
	}
	req := &soap.Message{
		Namespace: ep.Namespace, Local: "echo",
		Fields: map[string]string{"input": "bench"},
	}
	return host, ep, req
}

// BenchmarkCommunication measures a live SOAP echo round trip
// (experiment E6 — the paper's future-work extension).
func BenchmarkCommunication(b *testing.B) {
	host, ep, req := echoService(b)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(context.Background(), base+ep.Path, "", req); err != nil {
			b.Fatal(err)
		}
	}
}

// localExchange builds the in-process echo exchange of the
// communication campaign: the echoService host behind a WS-I message
// sniffer, reached through a LocalBridge. It returns the bridge, the
// endpoint path and the request.
func localExchange(tb testing.TB) (*transport.LocalBridge, string, *soap.Message) {
	tb.Helper()
	host, ep, req := echoService(tb)
	return transport.NewLocalBridge(transport.NewSniffer(host, wsi.NewChecker())), ep.Path, req
}

// BenchmarkLocalExchange measures one in-process echo exchange of the
// communication campaign: marshal, sniffer request check, host decode,
// validation and echo, sniffer response check and client decode. It is
// BenchmarkCommunication without the TCP socket.
func BenchmarkLocalExchange(b *testing.B) {
	bridge, path, req := localExchange(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := bridge.Invoke(context.Background(), path, req)
		if err != nil {
			b.Fatal(err)
		}
		if v, _ := resp.Field("input"); v != "bench" {
			b.Fatalf("echo = %q, want bench", v)
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
				runCampaign(b, campaign.WithLimit(benchLimit), campaign.WithVariant(v))
			}
		})
	}
}

// BenchmarkCommunicationCampaign measures the communication/execution
// extension (steps 4–5) at benchmark scale.
func BenchmarkCommunicationCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := campaign.New(campaign.WithLimit(benchLimit))
		if _, err := r.RunCommunication(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// robustLimit is the classes-per-catalog cap of the robustness bench,
// the scale of the wire_faults workload in wsbench.
const robustLimit = 15

// BenchmarkRobustnessMatrix measures the wire fault paths: the
// robustness matrix (fault injection, retries, typed decode errors)
// then the version matrix (SOAP 1.2, hybrid wires) on one runner.
// Run it with -benchmem: a fault that copies its padding shows up in
// B/op long before it shows in ns/op.
func BenchmarkRobustnessMatrix(b *testing.B) {
	cells := 0
	for i := 0; i < b.N; i++ {
		r := campaign.New(campaign.WithLimit(robustLimit))
		robust, err := r.RunRobustness(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		versions, err := r.RunVersions(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rt := robust.Totals()
		if rt.WrongSuccess != 0 {
			b.Fatalf("wrong-success cells: %d", rt.WrongSuccess)
		}
		cells += rt.Cells + versions.Totals().Cells
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(cells)/s, "cells/s")
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
				runCampaign(b, campaign.WithLimit(benchLimit), campaign.WithWorkers(workers))
			}
		})
	}
}

// benchNarrativeDoc publishes and serializes one document for the
// per-stage micro-benchmarks.
func benchNarrativeDoc(b testing.TB) ([]byte, *wsdl.Definitions) {
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
				framework.Generate(c, raw)
			}
		})
	}
}

// BenchmarkCompile measures the artifact verification step on a unit
// that compiles with warnings (Axis2 on a case-colliding type).
func BenchmarkCompile(b *testing.B) {
	raw, _ := benchNarrativeDoc(b)
	client := framework.NewAxis2Client()
	gen := framework.Generate(client, raw)
	if gen.Unit == nil {
		b.Fatal("generation failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Verify(gen.Unit)
	}
}

// BenchmarkSOAPRoundTrip measures the envelope stages without HTTP:
// marshal writes an echo request, decode is the transport's one scan
// plus the strict 1.1 parse, and detect is a standalone Detect.
func BenchmarkSOAPRoundTrip(b *testing.B) {
	msg := &soap.Message{
		Namespace: "http://bench.test/", Local: "echo",
		Fields: map[string]string{"input": "payload", "count": "7"},
	}
	raw, err := soap.V11.Marshal(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := soap.V11.Marshal(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan := soap.Scan(raw)
			if scan.Detect(soap.ContentType) != soap.Version11 {
				b.Fatal("echo request not detected as SOAP 1.1")
			}
			if _, err := soap.V11.UnmarshalScanned(scan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("detect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if soap.Detect(raw, soap.ContentType) != soap.Version11 {
				b.Fatal("echo request not detected as SOAP 1.1")
			}
		}
	})
}

// BenchmarkMessageCheck measures the WS-I message layer the
// communication campaign's sniffer runs twice per exchange: the check
// of an echo request and of its response, each under its HTTP
// metadata.
func BenchmarkMessageCheck(b *testing.B) {
	checker := wsi.NewChecker()
	for _, tc := range []struct {
		name  string
		local string
		meta  wsi.MessageMeta
	}{
		{"request", "echo", wsi.MessageMeta{ContentType: soap.ContentType, SOAPAction: `""`}},
		{"response", "echoResponse", wsi.MessageMeta{ContentType: soap.ContentType, HTTPStatus: 200}},
	} {
		raw, err := soap.V11.Marshal(&soap.Message{
			Namespace: "http://bench.test/", Local: tc.local,
			Fields: map[string]string{"input": "payload", "count": "7"},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := checker.CheckMessage(raw, tc.meta); len(r.Violations) != 0 {
					b.Fatalf("clean echo %s has findings: %v", tc.name, r.Violations)
				}
			}
		})
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
