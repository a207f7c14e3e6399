package wsinterop

import (
	"context"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
)

// Allocation pins for the per-document stages the stage benches time:
// the WS-I check, client artifact generation per family, artifact
// verification and the WSDL render. Allocation counts do not drift with
// the machine the way timings do, so a regression in any of them fails
// here on every runner. Each bound is the count measured on the
// benchmarks' DataTable document (in the comment) plus headroom.
func TestStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	raw, doc := benchNarrativeDoc(t)
	pin := func(name string, bound float64, f func()) {
		t.Helper()
		allocs := testing.AllocsPerRun(100, f)
		if allocs > bound {
			t.Errorf("%s: %.0f allocs, want <= %.0f", name, allocs, bound)
		}
		t.Logf("%s: %.0f allocs", name, allocs)
	}

	checker := wsi.NewChecker()
	// Measured: 1 and 2.
	pin("WSICheck", 3, func() { checker.Check(doc) })
	pin("wsdl.Marshal", 4, func() {
		if _, err := wsdl.Marshal(doc); err != nil {
			t.Fatal(err)
		}
	})

	a, err := framework.Analyze(raw)
	if err != nil {
		t.Fatal(err)
	}
	// The campaign hands each unit back to the generator pool once its
	// diagnostics are folded, so the pinned cycle does too. The families
	// differ by the quirk methods they add to the beans. Measured, in
	// roster order: 2, 1, 7, 2, 2; 1, 7, 8; 1, 1, 1.
	generate := map[string]float64{
		"Metro": 4, "Apache Axis1": 3, "Apache Axis2": 11, "Apache CXF": 4, "JBossWS CXF": 4,
		".NET C#": 3, ".NET Visual Basic": 11, ".NET JScript": 12,
		"gSOAP": 3, "Zend Framework": 3, "suds": 3,
	}
	for _, c := range framework.Clients() {
		bound, ok := generate[c.Name()]
		if !ok {
			t.Fatalf("no allocation bound for client %s", c.Name())
		}
		pin("GenerateAnalyzed/"+c.Name(), bound, func() {
			if gen := c.GenerateAnalyzed(a); gen.Unit != nil {
				framework.ReleaseUnit(gen.Unit)
			}
		})
	}

	axis2 := framework.NewAxis2Client()
	gen := axis2.GenerateAnalyzed(a)
	if gen.Unit == nil {
		t.Fatal("Axis2 generated no unit")
	}
	// Measured: 10.
	pin("Verify/Axis2", 15, func() { axis2.Verify(gen.Unit) })
}

// TestExchangeAllocs pins the allocations of one in-process echo
// exchange through sniffer and host (BenchmarkLocalExchange's loop):
// the request is built directly (one URL parse per Invoke, one
// allocation for its URL, body and header values), its bytes pass
// from bridge through sniffer to host without a copy, the response
// lands in a recycled header map, and known Content-Types resolve
// without a MIME parse.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	bridge, path, req := localExchange(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := bridge.Invoke(context.Background(), path, req); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 26.
	if allocs > 39 {
		t.Errorf("LocalExchange: %.0f allocs, want <= 39", allocs)
	}
	t.Logf("LocalExchange: %.0f allocs", allocs)
}
