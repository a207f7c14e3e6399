package campaign

import (
	"context"
	"testing"

	"wsinterop/internal/services"
)

// TestVariantCampaignsAgree verifies the complexity extension's
// central claim: the interoperability defects of this corpus are
// driven by the parameter classes, so raising the interface
// complexity (multi-parameter operations, nested envelopes,
// collections) must not change the error picture.
func TestVariantCampaignsAgree(t *testing.T) {
	baseline, err := newRunner(config{Limit: 200}).Run(context.Background())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, v := range services.Variants()[1:] {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			res, err := newRunner(config{Limit: 200, Variant: v}).Run(context.Background())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.TotalPublished != baseline.TotalPublished {
				t.Errorf("published = %d, baseline %d", res.TotalPublished, baseline.TotalPublished)
			}
			if res.InteropErrors != baseline.InteropErrors {
				t.Errorf("interop errors = %d, baseline %d", res.InteropErrors, baseline.InteropErrors)
			}
			if res.SameFrameworkErrors != baseline.SameFrameworkErrors {
				t.Errorf("same-framework = %d, baseline %d", res.SameFrameworkErrors, baseline.SameFrameworkErrors)
			}
			for _, server := range res.ServerOrder {
				got, want := res.Servers[server], baseline.Servers[server]
				if got.GenErrors != want.GenErrors || got.CompileErrors != want.CompileErrors {
					t.Errorf("%s: errors %d/%d, baseline %d/%d", server,
						got.GenErrors, got.CompileErrors, want.GenErrors, want.CompileErrors)
				}
			}
		})
	}
}

// TestVariantCommunication drives the complexity variants through the
// live round trip: the richer interfaces must still echo correctly.
func TestVariantCommunication(t *testing.T) {
	for _, v := range services.Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			r := newRunner(config{Limit: 60, Variant: v})
			res, err := r.RunCommunication(context.Background())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			totals := res.Totals()
			if totals.Succeeded == 0 {
				t.Error("no successful round trips")
			}
			if totals.Faults != 0 || totals.Mismatches != 0 {
				t.Errorf("runtime failures under variant %s: %+v", v, totals)
			}
		})
	}
}
