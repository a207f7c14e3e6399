package campaign

import (
	"context"
	"reflect"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/services"
)

// The oracles of the campaign's two sharing layers compare production
// against a test-side reference that shares nothing: the per-class path
// the paper's counts come from, every class published and tested on
// its own. The shape memo must be invisible against it
// (TestDedupEquivalence*), and so must the shared document analysis
// when every client re-parses the serialized WSDL per test, as the real
// tools do (TestReparseEquivalence*).

// referenceCell runs one definition through the per-class reference
// path: publishDirect, then steps 2–3 for every client into codes. With
// bytePath set the service carries no shared analysis, so every client
// runs framework.Generate on the document's bytes.
func (r *Runner) referenceCell(server framework.ServerFramework, def services.Definition,
	bytePath bool, codes []outcomeCode) publishSlot {
	s := r.publishDirect(server, def)
	if s.err == nil && s.ok {
		if bytePath {
			s.svc.analysis = nil
		}
		runRow(nil, &s.svc, r.clients, codes)
	}
	return s
}

// referenceResult builds cfg's Result on the reference path: every
// definition of every server through referenceCell, fanned out over the
// runner's pool (each definition writes only its own slot), then the
// production fold (foldStage). No shape memo or plan is involved.
func referenceResult(t testing.TB, cfg config, bytePath bool) *Result {
	t.Helper()
	r := newRunner(cfg)
	res := newResult(r)
	nc := len(r.clients)
	for _, server := range r.servers {
		defs, err := r.defsFor(server)
		if err != nil {
			t.Fatalf("reference definitions on %s: %v", server.Name(), err)
		}
		st := &studyStage{server: server, sp: &serverPlan{Defs: len(defs), defs: defs}, nc: nc,
			codes: make([]outcomeCode, len(defs)*nc), cells: make([]studyCell, len(defs))}
		err = r.feed(context.Background(), len(defs), func(di int) {
			switch s := r.referenceCell(server, defs[di], bytePath, st.row(di)); {
			case s.err != nil:
				st.fail(di, s.err)
			case s.ok:
				st.cells[di] = studyCell{published: true, flagged: s.svc.Flagged, profiles: s.svc.Profiles}
			}
		})
		if err == nil {
			err = st.err
		}
		if err != nil {
			t.Fatalf("reference stage on %s: %v", server.Name(), err)
		}
		r.foldStage(res, st)
	}
	return res
}

// requireReference runs cfg in production and refCfg on the reference
// path (with different worker counts, so scheduling differences are
// covered too), fails on any divergence, and returns both Results.
func requireReference(t *testing.T, cfg, refCfg config, bytePath bool) (prod, ref *Result) {
	t.Helper()
	prod, err := newRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("production run: %v", err)
	}
	ref = referenceResult(t, refCfg, bytePath)
	compareResults(t, prod, ref)
	return prod, ref
}

// requirePaperCounts checks the paper's full-scale invariants.
func requirePaperCounts(t *testing.T, results ...*Result) {
	t.Helper()
	for _, res := range results {
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
			t.Errorf("%s: %d != %d", s.name, s.a, s.b)
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
		t.Fatalf("profile roster length: %d != %d", len(a.Profiles), len(b.Profiles))
	}
	for i := range a.Profiles {
		if !reflect.DeepEqual(a.Profiles[i], b.Profiles[i]) {
			t.Errorf("profile %s matrix: %+v != %+v", a.Profiles[i].ID, *a.Profiles[i], *b.Profiles[i])
		}
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatalf("failure index length: %d != %d", len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			t.Fatalf("failure %d: %+v != %+v", i, a.Failures[i], b.Failures[i])
		}
	}
}

func TestReparseEquivalenceScaled(t *testing.T) {
	requireReference(t,
		config{Limit: 200, Workers: 4, KeepFailures: true},
		config{Limit: 200, Workers: 2, KeepFailures: true}, true)
}

func TestReparseEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence skipped in -short mode")
	}
	prod, ref := requireReference(t, config{KeepFailures: true}, config{KeepFailures: true}, true)
	requirePaperCounts(t, prod, ref)
}
