package campaign

import (
	"context"
	"testing"
)

// TestClientMaturityMatchesPaper reproduces the paper's §IV.A
// qualitative assessment at full scale: Metro, JBossWS, Apache CXF,
// gSOAP and .NET C# "appear to be quite mature as they fail almost
// only in presence of non WS-I compliant WSDL documents ... and these
// tools never produced code that later results in compilation errors
// or warnings"; the Axis tools and the VB/JScript back-ends do not
// meet that bar. Zend and suds lack the compilation step, so the
// criterion holds vacuously (the paper defers their assessment).
func TestClientMaturityMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign skipped in -short mode")
	}
	res, err := newRunner(config{}).Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	wantMature := map[string]bool{
		"Metro":             true,
		"Apache Axis1":      false,
		"Apache Axis2":      false,
		"Apache CXF":        true,
		"JBossWS CXF":       true,
		".NET C#":           true,
		".NET Visual Basic": false,
		".NET JScript":      false,
		"gSOAP":             true,
		"Zend Framework":    true, // dynamic: no compilation step to fail
		"suds":              true, // dynamic: no compilation step to fail
	}
	for name, want := range wantMature {
		c := res.Clients[name]
		if c == nil {
			t.Fatalf("missing client summary %q", name)
		}
		if got := c.Mature(); got != want {
			t.Errorf("%s maturity = %v, want %v (%+v)", name, got, want, *c)
		}
	}

	// The five compiled mature tools fail almost only on flagged
	// documents — the exceptions are the WS-I-compliant-but-unusable
	// services (zero operations, s:any), which the paper calls out.
	for _, name := range []string{"Metro", "Apache CXF", "JBossWS CXF", ".NET C#", "gSOAP"} {
		c := res.Clients[name]
		if c.ErrorsOnClean > c.ErrorsOnFlagged {
			t.Errorf("%s: errors on clean (%d) exceed errors on flagged (%d)",
				name, c.ErrorsOnClean, c.ErrorsOnFlagged)
		}
	}

	// ~97% of generation errors involve flagged documents (§IV text).
	genErrOnFlagged := 0
	for _, name := range res.ClientOrder {
		genErrOnFlagged += res.Clients[name].ErrorsOnFlagged
	}
	// ErrorsOnFlagged also counts compile-step failures, but flagged
	// services rarely reach compilation; the dominant share must hold.
	if genErrOnFlagged < 250 {
		t.Errorf("errors involving flagged services = %d, implausibly low", genErrOnFlagged)
	}

	// The unflagged-but-failing population exists (the s:any family,
	// the throwables, the reserved-word and case-colliding classes) —
	// the paper's "among those that pass, some still present
	// interoperability issues".
	if res.UnflaggedFailingServices == 0 {
		t.Error("expected services that pass WS-I yet fail somewhere")
	}
	if res.FlaggedServices-res.FlaggedCleanServices != 82 {
		t.Errorf("flagged failing = %d, want 82",
			res.FlaggedServices-res.FlaggedCleanServices)
	}
}
