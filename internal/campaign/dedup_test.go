package campaign

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/shape"
	"wsinterop/internal/transport"
	"wsinterop/internal/wsdl"
)

// These tests enforce the structural-shape memo contract (DESIGN.md
// §6.6): a campaign that content-addresses classes by shape and
// performs publish/WS-I/client-test work once per (server, shape) must
// produce a Result identical — every headline statistic, the full
// Table III matrix, and the failure index — to the test-side reference
// that processes every class individually (referenceResult).

func TestDedupEquivalenceScaled(t *testing.T) {
	prod, _ := requireReference(t,
		config{Limit: 200, Workers: 4, KeepFailures: true},
		config{Limit: 200, Workers: 2, KeepFailures: true}, false)
	if d := prod.Dedup; d.Shapes == 0 || d.PublishMemoized == 0 || d.TestMemoized == 0 {
		t.Errorf("memo layer did not engage: %+v", *d)
	}
}

func TestDedupEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence skipped in -short mode")
	}
	a, b := requireReference(t, config{KeepFailures: true}, config{KeepFailures: true}, false)
	requirePaperCounts(t, a, b)
	// At full scale the corpus must compress hard and no shape may
	// fail its byte-for-byte template verification.
	if a.Dedup.Fallbacks != 0 {
		t.Errorf("template verification fallbacks = %d, want 0", a.Dedup.Fallbacks)
	}
	if a.Dedup.Shapes == 0 || a.Dedup.Shapes >= a.Dedup.PublishTotal/2 {
		t.Errorf("poor shape compression: %d shapes for %d publishes", a.Dedup.Shapes, a.Dedup.PublishTotal)
	}
}

// referencePublished publishes every definition of server's catalog
// through publishDirect, the per-class path, on a runner of its own:
// the published services Publish must return.
func referencePublished(t *testing.T, cfg config, server framework.ServerFramework) []PublishedService {
	t.Helper()
	r := newRunner(cfg)
	defs, err := r.defsFor(server)
	if err != nil {
		t.Fatalf("reference definitions on %s: %v", server.Name(), err)
	}
	var out []PublishedService
	for _, def := range defs {
		s := r.publishDirect(server, def)
		if s.err != nil {
			t.Fatalf("reference publish of %s on %s: %v", def.Parameter.Name, server.Name(), s.err)
		}
		if s.ok {
			out = append(out, s.svc)
		}
	}
	return out
}

// requireSamePublished fails unless got, what Publish served, equals
// want, the per-class path's services: the same classes in order, the
// same bytes and the same verdicts.
func requireSamePublished(t *testing.T, server string, got, want []PublishedService) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: published %d services, the per-class path %d", server, len(got), len(want))
	}
	for j := range got {
		a, b := &got[j], &want[j]
		if a.Class != b.Class {
			t.Fatalf("%s service %d: class %q != %q", server, j, a.Class, b.Class)
		}
		if !bytes.Equal(a.Doc, b.Doc) {
			t.Errorf("%s %s: published document differs from the per-class marshal", server, a.Class)
		}
		if a.Flagged != b.Flagged || a.Compliant != b.Compliant || a.Profiles != b.Profiles {
			t.Errorf("%s %s: verdicts %v/%v/%b != %v/%v/%b", server, a.Class,
				a.Flagged, a.Compliant, a.Profiles, b.Flagged, b.Compliant, b.Profiles)
		}
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
	cfg := config{Limit: limit, Workers: 4}
	r := newRunner(cfg)
	for _, server := range r.servers {
		got, created, err := r.Publish(context.Background(), server)
		if err != nil {
			t.Fatalf("publish on %s: %v", server.Name(), err)
		}
		if want, _ := r.defsFor(server); created != len(want) {
			t.Errorf("%s: created %d, catalog holds %d", server.Name(), created, len(want))
		}
		requireSamePublished(t, server.Name(), got, referencePublished(t, cfg, server))
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
// classes share a shape): after a memoized communication run, every
// server's memo-served services deploy exactly as the per-class path's
// bytes do — same endpoint, path, operation and echo request — and the
// run's path-collision count is the per-class deployment's.
func TestDedupCommunicationEquivalence(t *testing.T) {
	const limit = 120
	ctx := context.Background()
	r := newRunner(config{Limit: limit, Workers: 4})
	res, err := r.RunCommunication(ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, server := range r.servers {
		sp, err := r.planFor(server)
		if err != nil {
			t.Fatal(err)
		}
		published, _, err := r.Publish(ctx, server)
		if err != nil {
			t.Fatalf("publish on %s: %v", server.Name(), err)
		}
		want := referencePublished(t, config{Limit: limit}, server)
		requireSamePublished(t, server.Name(), published, want)
		got, _, err := r.deployPublished(transport.NewHost(), server, sp.defs, published)
		if err != nil {
			t.Fatalf("deploy on %s: %v", server.Name(), err)
		}
		host, collisions := transport.NewHost(), 0
		for i := range want {
			doc, err := wsdl.Unmarshal(want[i].Doc)
			if err != nil {
				t.Fatalf("parse %s on %s: %v", want[i].Class, server.Name(), err)
			}
			var d deployment
			if deploy(host, doc, &want[i], &d) {
				collisions++
			}
			if !sameDeployment(got[i], d) {
				t.Errorf("comm %s %s: memo-served deployment differs from the per-class one", server.Name(), want[i].Class)
			}
		}
		if s := res.Servers[server.Name()]; s == nil || s.PathCollisions != collisions {
			t.Errorf("comm %s: path collisions %+v, per-class deployment %d", server.Name(), s, collisions)
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
	for _, server := range r.servers {
		want := referencePublished(t, config{Limit: limit}, server)
		for _, got := range publishTwice(t, r, server) {
			requireSamePublished(t, server.Name(), got, want)
		}
	}
}

// TestPublishAfterWireStage covers Publish after a wire stage, which
// publishes through the same shape entries without bytes: the stage
// leaves every solo representative unrendered, so two concurrent
// Publish calls race for its render cell (repDoc) while clones render
// from their templates. Both must return the bytes and verdicts that
// Publish on a fresh runner returns.
func TestPublishAfterWireStage(t *testing.T) {
	limit := 0
	if testing.Short() {
		limit = 500
	}
	ctx := context.Background()
	r := newRunner(config{Limit: limit, Workers: 4})
	if _, err := r.RunCommunication(ctx); err != nil {
		t.Fatalf("communication: %v", err)
	}
	requireSoloRepsUnrendered(t, r)
	fresh := newRunner(config{Limit: limit, Workers: 4})
	for si, server := range r.servers {
		want, _, err := fresh.Publish(ctx, fresh.servers[si])
		if err != nil {
			t.Fatalf("fresh publish on %s: %v", server.Name(), err)
		}
		for _, got := range publishTwice(t, r, server) {
			requireSamePublished(t, server.Name(), got, want)
		}
	}
}

// publishTwice runs two concurrent Publish calls of server on r.
func publishTwice(t *testing.T, r *Runner, server framework.ServerFramework) [2][]PublishedService {
	t.Helper()
	var pubs [2][]PublishedService
	var errs [2]error
	var wg sync.WaitGroup
	for k := range pubs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			pubs[k], _, errs[k] = r.Publish(context.Background(), server)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("publish %d on %s: %v", k, server.Name(), err)
		}
	}
	return pubs
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
