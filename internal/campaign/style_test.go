package campaign

import (
	"context"
	"testing"

	"wsinterop/internal/services"
	"wsinterop/internal/wsdl"
)

// TestStyleInvariance verifies the binding-style extension end to end:
// the interoperability defect picture is identical whether the servers
// emit document/literal (the study's configuration) or rpc/literal.
func TestStyleInvariance(t *testing.T) {
	docStyle, err := newRunner(config{Limit: 200}).Run(context.Background())
	if err != nil {
		t.Fatalf("document style: %v", err)
	}
	rpcStyle, err := newRunner(config{Limit: 200, Style: wsdl.StyleRPC}).Run(context.Background())
	if err != nil {
		t.Fatalf("rpc style: %v", err)
	}
	if docStyle.TotalPublished != rpcStyle.TotalPublished {
		t.Errorf("published: %d vs %d", docStyle.TotalPublished, rpcStyle.TotalPublished)
	}
	if docStyle.InteropErrors != rpcStyle.InteropErrors {
		t.Errorf("interop errors: %d vs %d", docStyle.InteropErrors, rpcStyle.InteropErrors)
	}
	if docStyle.FlaggedServices != rpcStyle.FlaggedServices {
		t.Errorf("flagged services: %d vs %d", docStyle.FlaggedServices, rpcStyle.FlaggedServices)
	}
	for _, client := range docStyle.ClientOrder {
		for _, server := range docStyle.ServerOrder {
			a, b := docStyle.Matrix[client][server], rpcStyle.Matrix[client][server]
			if a.GenErrors != b.GenErrors || a.CompileErrors != b.CompileErrors {
				t.Errorf("%s × %s: document %d/%d vs rpc %d/%d (gen/compile errors)",
					client, server, a.GenErrors, a.CompileErrors, b.GenErrors, b.CompileErrors)
			}
		}
	}
}

// TestRPCCommunication drives the rpc/literal emission through the
// live round trip: typed message parts are all required, so the
// payload builder must fill every part with a lexically valid sample.
func TestRPCCommunication(t *testing.T) {
	cfg := config{Limit: 80, Style: wsdl.StyleRPC, Variant: services.VariantMultiParam}
	res, err := newRunner(cfg).RunCommunication(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	totals := res.Totals()
	if totals.Succeeded == 0 {
		t.Error("no successful rpc round trips")
	}
	if totals.Faults != 0 || totals.Mismatches != 0 {
		t.Errorf("rpc runtime failures: %+v", totals)
	}
}
