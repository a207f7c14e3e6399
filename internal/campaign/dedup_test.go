package campaign

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"wsinterop/internal/shape"
	"wsinterop/internal/wsdl"
)

// These tests enforce the structural-shape memo contract (DESIGN.md
// §6.6): a campaign that content-addresses classes by shape and
// performs publish/WS-I/client-test work once per (server, shape) must
// produce a Result identical — every headline statistic, the full
// Table III matrix, and the failure index — to one that processes
// every class individually (config.noDedup, the ablation).

// runDedupPair executes the same campaign twice, memoized and
// per-class (with different worker counts, so scheduling differences
// are covered too), and fails on any divergence.
func runDedupPair(t *testing.T, dedup, nodedup config) {
	t.Helper()
	nodedup.noDedup = true
	a, err := newRunner(dedup).Run(context.Background())
	if err != nil {
		t.Fatalf("dedup run: %v", err)
	}
	b, err := newRunner(nodedup).Run(context.Background())
	if err != nil {
		t.Fatalf("nodedup run: %v", err)
	}
	compareResults(t, a, b)
	if !a.Dedup.Enabled {
		t.Error("dedup run should report Dedup.Enabled")
	}
	if b.Dedup.Enabled || *b.Dedup != (DedupStats{}) {
		t.Errorf("nodedup run should report zero stats, got %+v", *b.Dedup)
	}
	if a.Dedup.Shapes == 0 || a.Dedup.PublishMemoized == 0 || a.Dedup.TestMemoized == 0 {
		t.Errorf("memo layer did not engage: %+v", *a.Dedup)
	}
}

func TestDedupEquivalenceScaled(t *testing.T) {
	runDedupPair(t,
		config{Limit: 200, Workers: 4, KeepFailures: true},
		config{Limit: 200, Workers: 2, KeepFailures: true})
}

// TestDedupEquivalenceReparse covers the ablation cross-product: the
// memo must also be invisible when clients re-parse bytes per test.
func TestDedupEquivalenceReparse(t *testing.T) {
	runDedupPair(t,
		config{Limit: 150, Workers: 4, KeepFailures: true, reparse: true},
		config{Limit: 150, Workers: 2, KeepFailures: true, reparse: true})
}

func TestDedupEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence skipped in -short mode")
	}
	a, err := newRunner(config{KeepFailures: true}).Run(context.Background())
	if err != nil {
		t.Fatalf("dedup run: %v", err)
	}
	b, err := newRunner(config{KeepFailures: true, noDedup: true}).Run(context.Background())
	if err != nil {
		t.Fatalf("nodedup run: %v", err)
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
	// At full scale the corpus must compress hard and no shape may
	// fail its byte-for-byte template verification.
	if a.Dedup.Fallbacks != 0 {
		t.Errorf("template verification fallbacks = %d, want 0", a.Dedup.Fallbacks)
	}
	if a.Dedup.Shapes == 0 || a.Dedup.Shapes >= a.Dedup.PublishTotal/2 {
		t.Errorf("poor shape compression: %d shapes for %d publishes", a.Dedup.Shapes, a.Dedup.PublishTotal)
	}
}

// TestDedupPublishBytes proves the byte-level half of the contract at
// full catalog scale: every published document, flag, and compliance
// verdict from the memoized path is identical to the per-class path.
func TestDedupPublishBytes(t *testing.T) {
	limit := 0
	if testing.Short() {
		limit = 500
	}
	ctx := context.Background()
	dedup := newRunner(config{Limit: limit, Workers: 4})
	direct := newRunner(config{Limit: limit, Workers: 4, noDedup: true})
	for i, server := range dedup.servers {
		a, createdA, err := dedup.Publish(ctx, server)
		if err != nil {
			t.Fatalf("dedup publish on %s: %v", server.Name(), err)
		}
		b, createdB, err := direct.Publish(ctx, direct.servers[i])
		if err != nil {
			t.Fatalf("direct publish on %s: %v", server.Name(), err)
		}
		if createdA != createdB || len(a) != len(b) {
			t.Fatalf("%s: created %d/%d published %d/%d", server.Name(), createdA, createdB, len(a), len(b))
		}
		for j := range a {
			if a[j].Class != b[j].Class {
				t.Fatalf("%s service %d: class %q != %q", server.Name(), j, a[j].Class, b[j].Class)
			}
			if !bytes.Equal(a[j].Doc, b[j].Doc) {
				t.Errorf("%s %s: memoized document differs from direct marshal", server.Name(), a[j].Class)
			}
			if a[j].Flagged != b[j].Flagged || a[j].Compliant != b[j].Compliant {
				t.Errorf("%s %s: flagged/compliant %v/%v != %v/%v", server.Name(), a[j].Class,
					a[j].Flagged, a[j].Compliant, b[j].Flagged, b[j].Compliant)
			}
		}
	}
}

// TestDedupWorkerStability asserts the memoized Result — including the
// shape census — is independent of worker count and therefore of
// scheduling and map iteration order.
func TestDedupWorkerStability(t *testing.T) {
	cfgs := []config{
		{Limit: 200, Workers: 1, KeepFailures: true},
		{Limit: 200, Workers: 8, KeepFailures: true},
	}
	results := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := newRunner(cfg).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", cfg.Workers, err)
		}
		results[i] = res
	}
	compareResults(t, results[0], results[1])
	if results[0].Dedup.Shapes != results[1].Dedup.Shapes {
		t.Errorf("shape census depends on workers: %d vs %d",
			results[0].Dedup.Shapes, results[1].Dedup.Shapes)
	}
}

// TestShapeTemplateSubstitution is the property test behind the memo:
// two definitions with equal fingerprints must produce byte-identical
// WSDL documents after name substitution. For every shape group in the
// corpus slice, a template split from the sentinel publish must
// re-render every member's direct per-class marshal exactly.
func TestShapeTemplateSubstitution(t *testing.T) {
	r := newRunner(config{})
	for _, server := range r.servers {
		defs, err := r.defsFor(server)
		if err != nil {
			t.Fatal(err)
		}
		if len(defs) > 400 {
			defs = defs[:400]
		}
		groups := make(map[shape.Fingerprint][]int)
		for i, def := range defs {
			if shape.Memoizable(def) {
				fp := shape.Of(def)
				groups[fp] = append(groups[fp], i)
			}
		}
		shapes, rejected := 0, 0
		for _, members := range groups {
			sdef, svars := shape.Sentinel(defs[members[0]])
			sdoc, err := server.Publish(sdef)
			if err != nil {
				// NotDeployable is structural: every member must agree.
				rejected++
				for _, i := range members {
					if _, err := server.Publish(defs[i]); err == nil {
						t.Errorf("%s: sentinel rejected but %s deploys", server.Name(), defs[i].Parameter.Name)
					}
				}
				continue
			}
			tmpl, err := wsdl.MarshalTemplate(sdoc, svars)
			if err != nil {
				t.Fatalf("%s: split template: %v", server.Name(), err)
			}
			shapes++
			for _, i := range members {
				doc, err := server.Publish(defs[i])
				if err != nil {
					t.Errorf("%s: sentinel deploys but %s rejected", server.Name(), defs[i].Parameter.Name)
					continue
				}
				want, err := wsdl.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tmpl.Render(shape.Vars(defs[i]))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s %s: rendered document differs from direct marshal",
						server.Name(), defs[i].Parameter.Name)
				}
			}
		}
		if shapes == 0 && rejected == 0 {
			t.Errorf("%s: no shape groups exercised", server.Name())
		}
	}
}

// TestDedupCommunicationEquivalence asserts the memo layer is
// invisible to the communication extension, whose endpoint derivation
// is name-dependent (per-class paths must not collide just because
// classes share a shape).
func TestDedupCommunicationEquivalence(t *testing.T) {
	run := func(cfg config) *CommResult {
		t.Helper()
		res, err := newRunner(cfg).RunCommunication(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(config{Limit: 120, Workers: 4})
	b := run(config{Limit: 120, Workers: 4, noDedup: true})
	for _, server := range a.ServerOrder {
		if *a.Servers[server] != *b.Servers[server] {
			t.Errorf("comm %s: dedup %+v != nodedup %+v", server, *a.Servers[server], *b.Servers[server])
		}
	}
	for _, client := range a.ClientOrder {
		if *a.Clients[client] != *b.Clients[client] {
			t.Errorf("comm client %s: dedup %+v != nodedup %+v", client, *a.Clients[client], *b.Clients[client])
		}
	}
}

// TestPublishAfterRun covers the one path that renders a solo shape's
// bytes on demand: Run skips the marshal of every solo builder, and a
// later Publish on the same runner serves the representative. Two
// concurrent Publish calls race for the entry's render cell (run under
// -race in CI); both must return the per-class path's exact bytes and
// verdicts.
func TestPublishAfterRun(t *testing.T) {
	limit := 0
	if testing.Short() {
		limit = 500
	}
	ctx := context.Background()
	r := newRunner(config{Limit: limit, Workers: 4})
	if _, err := r.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	requireSoloRepsUnrendered(t, r)
	direct := newRunner(config{Limit: limit, Workers: 4, noDedup: true})
	for i, server := range r.servers {
		var pubs [2][]PublishedService
		var errs [2]error
		var wg sync.WaitGroup
		for k := range pubs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				pubs[k], _, errs[k] = r.Publish(ctx, server)
			}(k)
		}
		wg.Wait()
		want, _, err := direct.Publish(ctx, direct.servers[i])
		if err != nil {
			t.Fatalf("direct publish on %s: %v", server.Name(), err)
		}
		for k, got := range pubs {
			if errs[k] != nil {
				t.Fatalf("publish %d after run on %s: %v", k, server.Name(), errs[k])
			}
			if len(got) != len(want) {
				t.Fatalf("%s: publish %d served %d services, direct %d", server.Name(), k, len(got), len(want))
			}
			for j := range got {
				a, b := &got[j], &want[j]
				if a.Class != b.Class || !bytes.Equal(a.Doc, b.Doc) {
					t.Errorf("%s %s: publish %d after run differs from direct marshal", server.Name(), b.Class, k)
				}
				if a.Flagged != b.Flagged || a.Compliant != b.Compliant || a.Profiles != b.Profiles {
					t.Errorf("%s %s: verdicts %v/%v/%b != %v/%v/%b", server.Name(), b.Class,
						a.Flagged, a.Compliant, a.Profiles, b.Flagged, b.Compliant, b.Profiles)
				}
			}
		}
	}
}

// TestSoloBuildersSkipMarshal pins the saving structurally, with a
// check that does not drift with the machine: after a plain Run no solo
// representative holds document bytes (its builder never marshaled),
// while every verified multi-member builder still does (template
// verification and the journal read them). The checkpointed half lives
// in TestCheckpointDocsOnlyForSharedShapes.
func TestSoloBuildersSkipMarshal(t *testing.T) {
	r := newRunner(config{Limit: 300, Workers: 4})
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	requireSoloRepsUnrendered(t, r)
}

// requireSoloRepsUnrendered fails unless every solo representative of
// r's memo lacks document bytes and every verified multi-member one
// has them, with at least one of each.
func requireSoloRepsUnrendered(t *testing.T, r *Runner) {
	t.Helper()
	solo, shared := 0, 0
	for key, e := range r.dedup.entries {
		switch {
		case e.rep.memo == nil:
		case e.solo:
			solo++
			if e.rep.Doc != nil || e.doc != nil {
				t.Errorf("solo shape %s on %s holds document bytes", e.rep.Class, key.server)
			}
		case e.tmpl != nil:
			shared++
			if len(e.rep.Doc) == 0 {
				t.Errorf("verified builder %s on %s holds no document", e.rep.Class, key.server)
			}
		}
	}
	if solo == 0 || shared == 0 {
		t.Errorf("%d solo and %d verified multi-member representatives; the pin needs both", solo, shared)
	}
}
