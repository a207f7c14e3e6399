package campaign

import (
	"context"
	"reflect"
	"testing"
)

// These tests enforce the analysis-cache contract: a campaign that
// shares one memoized document analysis across all clients must
// produce a Result identical — every headline statistic, the full
// Table III matrix, and the failure index — to one where every client
// re-parses the serialized WSDL per test (config.reparse, the
// behaviour of the real tools and the DESIGN.md §6.3 ablation).

// runEquivalencePair executes the same campaign twice, cached and
// reparsed (with different worker counts, so scheduling differences
// are covered too), and fails on any divergence.
func runEquivalencePair(t *testing.T, cached, reparse config) {
	t.Helper()
	reparse.reparse = true
	a, err := newRunner(cached).Run(context.Background())
	if err != nil {
		t.Fatalf("cached run: %v", err)
	}
	b, err := newRunner(reparse).Run(context.Background())
	if err != nil {
		t.Fatalf("reparse run: %v", err)
	}
	compareResults(t, a, b)
}

// compareResults asserts two campaign results are identical,
// reporting the first divergence precisely rather than dumping both.
func compareResults(t *testing.T, a, b *Result) {
	t.Helper()
	type scalar struct {
		name string
		a, b int
	}
	for _, s := range []scalar{
		{"TotalServices", a.TotalServices, b.TotalServices},
		{"TotalPublished", a.TotalPublished, b.TotalPublished},
		{"TotalTests", a.TotalTests, b.TotalTests},
		{"SameFrameworkErrors", a.SameFrameworkErrors, b.SameFrameworkErrors},
		{"InteropErrors", a.InteropErrors, b.InteropErrors},
		{"FlaggedServices", a.FlaggedServices, b.FlaggedServices},
		{"FlaggedCleanServices", a.FlaggedCleanServices, b.FlaggedCleanServices},
		{"UnflaggedFailingServices", a.UnflaggedFailingServices, b.UnflaggedFailingServices},
	} {
		if s.a != s.b {
			t.Errorf("%s: cached %d != reparse %d", s.name, s.a, s.b)
		}
	}
	if !reflect.DeepEqual(a.ServerOrder, b.ServerOrder) || !reflect.DeepEqual(a.ClientOrder, b.ClientOrder) {
		t.Fatalf("roster orders differ: %v/%v vs %v/%v", a.ServerOrder, a.ClientOrder, b.ServerOrder, b.ClientOrder)
	}
	for _, server := range a.ServerOrder {
		if !reflect.DeepEqual(a.Servers[server], b.Servers[server]) {
			t.Errorf("server %s: %+v != %+v", server, a.Servers[server], b.Servers[server])
		}
	}
	for _, client := range a.ClientOrder {
		if !reflect.DeepEqual(a.Clients[client], b.Clients[client]) {
			t.Errorf("client %s: %+v != %+v", client, a.Clients[client], b.Clients[client])
		}
		for _, server := range a.ServerOrder {
			if *a.Matrix[client][server] != *b.Matrix[client][server] {
				t.Errorf("cell %s × %s: %+v != %+v", client, server,
					*a.Matrix[client][server], *b.Matrix[client][server])
			}
		}
	}
	if len(a.Profiles) != len(b.Profiles) {
		t.Fatalf("profile roster length: cached %d != reparse %d", len(a.Profiles), len(b.Profiles))
	}
	for i := range a.Profiles {
		if !reflect.DeepEqual(a.Profiles[i], b.Profiles[i]) {
			t.Errorf("profile %s matrix: %+v != %+v", a.Profiles[i].ID, *a.Profiles[i], *b.Profiles[i])
		}
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure index length: cached %d != reparse %d", len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			t.Fatalf("failure %d: %+v != %+v", i, a.Failures[i], b.Failures[i])
		}
	}
}

func TestReparseEquivalenceScaled(t *testing.T) {
	runEquivalencePair(t,
		config{Limit: 200, Workers: 4, KeepFailures: true},
		config{Limit: 200, Workers: 2, KeepFailures: true})
}

func TestReparseEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence skipped in -short mode")
	}
	cached := config{KeepFailures: true}
	reparse := config{KeepFailures: true, reparse: true}
	a, err := newRunner(cached).Run(context.Background())
	if err != nil {
		t.Fatalf("cached run: %v", err)
	}
	b, err := newRunner(reparse).Run(context.Background())
	if err != nil {
		t.Fatalf("reparse run: %v", err)
	}
	compareResults(t, a, b)

	// The paper's full-scale invariants must hold on both paths.
	for _, res := range []*Result{a, b} {
		if res.TotalServices != 22024 {
			t.Errorf("services created = %d, want 22024", res.TotalServices)
		}
		if res.TotalPublished != 7239 {
			t.Errorf("published = %d, want 7239", res.TotalPublished)
		}
		if res.TotalTests != 79629 {
			t.Errorf("tests = %d, want 79629", res.TotalTests)
		}
		if res.InteropErrors != 1588 {
			t.Errorf("interop errors = %d, want 1588", res.InteropErrors)
		}
		if res.SameFrameworkErrors != 307 {
			t.Errorf("same-framework errors = %d, want 307", res.SameFrameworkErrors)
		}
	}
}
