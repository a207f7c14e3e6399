package campaign

import (
	"testing"

	"wsinterop/internal/typesys"
)

func TestExplainNarrativeClass(t *testing.T) {
	r := newRunner(config{})
	e, err := r.Explain("Metro", typesys.JavaW3CEndpointReference)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !e.Deployed {
		t.Fatal("W3CEndpointReference should deploy on Metro")
	}
	if len(e.Compliance) == 0 {
		t.Error("expected WS-I findings")
	}
	if len(e.Clients) != 11 {
		t.Fatalf("clients = %d, want 11", len(e.Clients))
	}
	failures := 0
	var axis1 *ClientExplanation
	for i := range e.Clients {
		if e.Clients[i].Failed() {
			failures++
		}
		if e.Clients[i].Client == "Apache Axis1" {
			axis1 = &e.Clients[i]
		}
	}
	if failures != 9 {
		t.Errorf("failing clients = %d, want 9 (Table III row a)", failures)
	}
	if axis1 == nil || !axis1.ArtifactsProduced {
		t.Error("Axis1 fails silently: artifacts must exist alongside the error")
	}
}

func TestExplainRefusedDeployment(t *testing.T) {
	r := newRunner(config{})
	e, err := r.Explain("Metro", typesys.JavaFuture)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if e.Deployed {
		t.Fatal("Metro must refuse Future")
	}
	if e.DeployError == "" {
		t.Error("refusal reason missing")
	}
	if len(e.Clients) != 0 {
		t.Error("no client runs without a document")
	}
}

func TestExplainErrors(t *testing.T) {
	r := newRunner(config{})
	if _, err := r.Explain("NoSuchServer", "x.Y"); err == nil {
		t.Error("unknown server should fail")
	}
	if _, err := r.Explain("Metro", "System.Data.DataTable"); err == nil {
		t.Error("C# class is not in the Java catalog")
	}
	if _, err := r.Explain("WCF .NET", "no.such.Class"); err == nil {
		t.Error("unknown class should fail")
	}
}
