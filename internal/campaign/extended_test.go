package campaign

import (
	"context"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/typesys"
)

// TestExtendedFourServerCampaign runs the widened setup the paper
// lists as future work: the three study servers plus the Apache Axis2
// server-side model. The new column's behaviour follows from the
// emitter's properties:
//
//   - throwable classes are not deployable, so Axis1's 889-error
//     family cannot occur against this server;
//   - the W3CEndpointReference emission declares a located import, so
//     the class that breaks nine clients elsewhere interoperates;
//   - the adb-format vendor facet still breaks the .NET languages.
func TestExtendedFourServerCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("extended campaign skipped in -short mode")
	}
	servers := append(framework.Servers(), framework.NewAxis2Server())
	res, err := newRunner(config{Servers: servers}).Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.ServerOrder) != 4 {
		t.Fatalf("server order = %v", res.ServerOrder)
	}
	axis2 := res.Servers["Apache Axis2 (server)"]
	if axis2 == nil {
		t.Fatal("missing Axis2 server summary")
	}

	wantDeployed := typesys.JavaBeanBoth - typesys.JavaThrowablesBoth
	if axis2.Deployed != wantDeployed {
		t.Errorf("Axis2 server deployed %d, want %d", axis2.Deployed, wantDeployed)
	}
	if res.TotalTests != (7239+wantDeployed)*11 {
		t.Errorf("total tests = %d", res.TotalTests)
	}

	// No throwables → Axis1 compiles everything against this server.
	if got := res.Matrix["Apache Axis1"]["Apache Axis2 (server)"].CompileErrors; got != 0 {
		t.Errorf("Axis1 compile errors = %d, want 0", got)
	}
	// The resolvable addressing variant removes the a/d generation
	// error family: only the vendor facet (b) remains, and only for
	// the .NET languages.
	wantGenErrors := map[string]int{
		"Metro": 0, "Apache Axis1": 0, "Apache Axis2": 0,
		"Apache CXF": 0, "JBossWS CXF": 0,
		".NET C#": 1, ".NET Visual Basic": 1, ".NET JScript": 1,
		"gSOAP": 0, "Zend Framework": 0, "suds": 0,
	}
	for client, want := range wantGenErrors {
		if got := res.Matrix[client]["Apache Axis2 (server)"].GenErrors; got != want {
			t.Errorf("%s gen errors on Axis2 server = %d, want %d", client, got, want)
		}
	}
	// The study's three columns are untouched by adding a fourth.
	if res.Servers["Metro"].CompileErrors != 529 ||
		res.Servers["JBossWS CXF"].CompileErrors != 464 ||
		res.Servers["WCF .NET"].CompileErrors != 308 {
		t.Error("original columns changed when widening the setup")
	}
	// Remaining per-column issues on the new server: Axis2 client's
	// duplicate-local bug still fires (XMLGregorianCalendar), JScript
	// still breaks on the 50 reserved-word classes, VB on the echo
	// field.
	if got := res.Matrix["Apache Axis2"]["Apache Axis2 (server)"].CompileErrors; got != 1 {
		t.Errorf("Axis2 client compile errors = %d, want 1", got)
	}
	if got := res.Matrix[".NET JScript"]["Apache Axis2 (server)"].CompileErrors; got != 50 {
		t.Errorf("JScript compile errors = %d, want 50", got)
	}
	if got := res.Matrix[".NET Visual Basic"]["Apache Axis2 (server)"].CompileErrors; got != 1 {
		t.Errorf("VB compile errors = %d, want 1", got)
	}
}
