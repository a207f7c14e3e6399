package campaign

import (
	"context"
	"reflect"
	"testing"

	"wsinterop/internal/wsi"
)

// TestProfilesMatrixConsistency pins the per-profile compliance matrix:
// the roster mirrors the wsi registry, production and the per-class
// reference (referenceResult) tally identical matrices, every cell is
// internally consistent with the server summaries, and the IVOA
// profile — whose check set is a strict superset of BP 1.1's core
// checks — never admits a service BP 1.1 rejects.
func TestProfilesMatrixConsistency(t *testing.T) {
	memo, err := newRunner(config{Limit: 150, Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatalf("memoized run: %v", err)
	}
	perClass := referenceResult(t, config{Limit: 150, Workers: 2}, false)

	roster := wsi.Profiles()
	if len(memo.Profiles) != len(roster) {
		t.Fatalf("result carries %d profiles, registry has %d", len(memo.Profiles), len(roster))
	}
	if len(roster) < 2 {
		t.Fatalf("expected at least two registered profiles, got %d", len(roster))
	}
	for i, p := range roster {
		if memo.Profiles[i].ID != p.ID || memo.Profiles[i].Name != p.Name {
			t.Errorf("profile %d: result has %s/%s, registry has %s/%s",
				i, memo.Profiles[i].ID, memo.Profiles[i].Name, p.ID, p.Name)
		}
	}

	// The memoized (shape, profile) verdicts and the per-class checks
	// must produce the same matrix.
	if !reflect.DeepEqual(memo.Profiles, perClass.Profiles) {
		t.Errorf("memoized profile matrix diverges from per-class:\n memo %+v\n per-class %+v",
			memo.Profiles, perClass.Profiles)
	}

	byID := make(map[string]*ProfileCompliance, len(memo.Profiles))
	for _, pc := range memo.Profiles {
		byID[pc.ID] = pc
		sum := 0
		for server, n := range pc.Compliant {
			sum += n
			srv := memo.Servers[server]
			if srv == nil {
				t.Errorf("profile %s counts unknown server %q", pc.ID, server)
				continue
			}
			if n < 0 || n > srv.Deployed {
				t.Errorf("profile %s × %s: %d compliant of %d deployed", pc.ID, server, n, srv.Deployed)
			}
		}
		if sum != pc.TotalCompliant {
			t.Errorf("profile %s: per-server cells sum to %d, TotalCompliant is %d", pc.ID, sum, pc.TotalCompliant)
		}
		if pc.TotalCompliant > memo.TotalPublished {
			t.Errorf("profile %s: %d compliant of %d published", pc.ID, pc.TotalCompliant, memo.TotalPublished)
		}
	}

	bp11, ivoa := byID["bp11"], byID["ivoa"]
	if bp11 == nil || ivoa == nil {
		t.Fatalf("matrix is missing a built-in profile: %+v", memo.Profiles)
	}
	if bp11.TotalCompliant == 0 {
		t.Error("no service compliant with bp11 — the corpus is overwhelmingly compliant, so the tally is miswired")
	}
	for server, n := range ivoa.Compliant {
		if n > bp11.Compliant[server] {
			t.Errorf("%s: ivoa admits %d services but bp11 only %d — ivoa checks are a superset of bp11's",
				server, n, bp11.Compliant[server])
		}
	}
}
