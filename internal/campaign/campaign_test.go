package campaign

import (
	"context"
	"testing"
)

// TestFullCampaignReproducesPaper runs the complete campaign — all
// 22 024 services, all eleven clients — and asserts the aggregate
// numbers of the paper's Fig. 4 and headline statistics (see
// DESIGN.md §3 for the canonical reconstruction).
func TestFullCampaignReproducesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign skipped in -short mode")
	}
	res, err := newRunner(config{}).Run(context.Background())
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}

	if got, want := res.TotalServices, 22024; got != want {
		t.Errorf("total services = %d, want %d", got, want)
	}
	if got, want := res.TotalPublished, 7239; got != want {
		t.Errorf("published services = %d, want %d", got, want)
	}
	if got, want := res.TotalTests, 79629; got != want {
		t.Errorf("total tests = %d, want %d", got, want)
	}
	if got, want := res.FlaggedServices, 86; got != want {
		t.Errorf("description-step warnings = %d, want %d", got, want)
	}
	if got, want := res.FlaggedCleanServices, 4; got != want {
		t.Errorf("flagged services clean everywhere = %d, want %d", got, want)
	}
	if got, want := res.SameFrameworkErrors, 307; got != want {
		t.Errorf("same-framework errors = %d, want %d", got, want)
	}
	if got, want := res.InteropErrors, 1588; got != want {
		t.Errorf("interoperability errors = %d, want %d", got, want)
	}

	wantServers := map[string]ServerSummary{
		"Metro": {
			Created: 3971, Deployed: 2489,
			DescriptionWarnings: 2, Tests: 27379,
			GenWarnings: 2489, GenErrors: 13,
			CompileWarnings: 4978, CompileErrors: 529,
		},
		"JBossWS CXF": {
			Created: 3971, Deployed: 2248,
			DescriptionWarnings: 4, Tests: 24728,
			GenWarnings: 2255, GenErrors: 21,
			CompileWarnings: 4496, CompileErrors: 464,
		},
		"WCF .NET": {
			Created: 14082, Deployed: 2502,
			DescriptionWarnings: 80, Tests: 27522,
			GenWarnings: 19, GenErrors: 253,
			CompileWarnings: 5004, CompileErrors: 308,
		},
	}
	for name, want := range wantServers {
		got := res.Servers[name]
		if got == nil {
			t.Errorf("missing server summary %q", name)
			continue
		}
		if *got != want {
			t.Errorf("server %s summary:\n got %+v\nwant %+v", name, *got, want)
		}
	}

	// Table III generation-error cells (DESIGN.md §3.2).
	wantGenErrors := map[string]map[string]int{
		"Metro":             {"Metro": 1, "JBossWS CXF": 3, "WCF .NET": 79},
		"Apache Axis1":      {"Metro": 1, "JBossWS CXF": 1, "WCF .NET": 2},
		"Apache Axis2":      {"Metro": 1, "JBossWS CXF": 2, "WCF .NET": 0},
		"Apache CXF":        {"Metro": 1, "JBossWS CXF": 1, "WCF .NET": 79},
		"JBossWS CXF":       {"Metro": 1, "JBossWS CXF": 1, "WCF .NET": 79},
		".NET C#":           {"Metro": 2, "JBossWS CXF": 4, "WCF .NET": 0},
		".NET Visual Basic": {"Metro": 2, "JBossWS CXF": 4, "WCF .NET": 0},
		".NET JScript":      {"Metro": 2, "JBossWS CXF": 4, "WCF .NET": 0},
		"gSOAP":             {"Metro": 1, "JBossWS CXF": 1, "WCF .NET": 13},
		"Zend Framework":    {"Metro": 0, "JBossWS CXF": 0, "WCF .NET": 0},
		"suds":              {"Metro": 1, "JBossWS CXF": 0, "WCF .NET": 1},
	}
	for client, row := range wantGenErrors {
		for server, want := range row {
			cell := res.Matrix[client][server]
			if cell == nil {
				t.Errorf("missing matrix cell %s × %s", client, server)
				continue
			}
			if cell.GenErrors != want {
				t.Errorf("gen errors %s × %s = %d, want %d", client, server, cell.GenErrors, want)
			}
		}
	}

	// Table III compilation cells (DESIGN.md §3.3).
	wantCompile := map[string]map[string][2]int{ // [warnings, errors]
		"Apache Axis1":      {"Metro": {2489, 477}, "JBossWS CXF": {2248, 412}, "WCF .NET": {2502, 0}},
		"Apache Axis2":      {"Metro": {2489, 1}, "JBossWS CXF": {2248, 1}, "WCF .NET": {2502, 3}},
		".NET Visual Basic": {"Metro": {0, 1}, "JBossWS CXF": {0, 1}, "WCF .NET": {0, 4}},
		".NET JScript":      {"Metro": {0, 50}, "JBossWS CXF": {0, 50}, "WCF .NET": {0, 301}},
		"Metro":             {"Metro": {0, 0}, "JBossWS CXF": {0, 0}, "WCF .NET": {0, 0}},
		"Apache CXF":        {"Metro": {0, 0}, "JBossWS CXF": {0, 0}, "WCF .NET": {0, 0}},
		"gSOAP":             {"Metro": {0, 0}, "JBossWS CXF": {0, 0}, "WCF .NET": {0, 0}},
	}
	for client, row := range wantCompile {
		for server, want := range row {
			cell := res.Matrix[client][server]
			if cell == nil {
				t.Errorf("missing matrix cell %s × %s", client, server)
				continue
			}
			if cell.CompileWarnings != want[0] || cell.CompileErrors != want[1] {
				t.Errorf("compile %s × %s = %d/%d warnings/errors, want %d/%d",
					client, server, cell.CompileWarnings, cell.CompileErrors, want[0], want[1])
			}
		}
	}

	// Generation-warning columns (DESIGN.md §3.4).
	wantGenWarnings := map[string]map[string]int{
		".NET JScript":   {"Metro": 2489, "JBossWS CXF": 2248, "WCF .NET": 1},
		"Zend Framework": {"Metro": 0, "JBossWS CXF": 4, "WCF .NET": 8},
		"suds":           {"Metro": 0, "JBossWS CXF": 3, "WCF .NET": 8},
		".NET C#":        {"Metro": 0, "JBossWS CXF": 0, "WCF .NET": 1},
	}
	for client, row := range wantGenWarnings {
		for server, want := range row {
			if got := res.Matrix[client][server].GenWarnings; got != want {
				t.Errorf("gen warnings %s × %s = %d, want %d", client, server, got, want)
			}
		}
	}
}
