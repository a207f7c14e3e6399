package campaign

import (
	"context"
	"testing"
	"testing/quick"

	"wsinterop/internal/typesys"
)

// TestCampaignInvariantsProperty runs scaled campaigns at
// pseudo-random limits and checks the structural invariants that must
// hold at every scale.
func TestCampaignInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property campaign sweep skipped in -short mode")
	}
	prop := func(seed uint16) bool {
		limit := 20 + int(seed)%180 // 20..199 classes per catalog
		res, err := newRunner(config{Limit: limit}).Run(context.Background())
		if err != nil {
			t.Logf("limit %d: %v", limit, err)
			return false
		}
		if res.TotalServices != 3*limit {
			return false
		}
		if res.TotalTests != res.TotalPublished*len(res.ClientOrder) {
			return false
		}
		genE, compE := 0, 0
		for _, s := range res.Servers {
			if s.Deployed > s.Created || s.DescriptionErrors != 0 {
				return false
			}
			genE += s.GenErrors
			compE += s.CompileErrors
		}
		if res.InteropErrors != genE+compE {
			return false
		}
		if res.FlaggedCleanServices > res.FlaggedServices {
			return false
		}
		return res.SameFrameworkErrors <= res.InteropErrors
	}
	cfg := &quick.Config{MaxCount: 12}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestCustomCatalogCampaign runs the campaign over a user-supplied
// catalog (the ImportJSON facility), demonstrating config.CatalogFor.
func TestCustomCatalogCampaign(t *testing.T) {
	data := `{"language":"Java","classes":[
	  {"name":"com.acme.Widget","kind":"bean",
	   "fields":[{"name":"value","kind":"string"}]},
	  {"name":"com.acme.Colliding","kind":"bean","hints":["case-colliding-fields"],
	   "fields":[{"name":"total","kind":"int"},{"name":"Total","kind":"int"}]},
	  {"name":"com.acme.Hidden","kind":"interface"}
	]}`
	javaCat, err := typesys.ImportJSON([]byte(data))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	csData := `{"language":"C#","classes":[
	  {"name":"Acme.Gadget","kind":"bean",
	   "fields":[{"name":"label","kind":"string"}]}
	]}`
	csCat, err := typesys.ImportJSON([]byte(csData))
	if err != nil {
		t.Fatalf("import: %v", err)
	}

	cfg := config{CatalogFor: func(lang typesys.Language) *typesys.Catalog {
		if lang == typesys.Java {
			return javaCat
		}
		return csCat
	}}
	res, err := newRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.TotalServices != 3+3+1 {
		t.Errorf("total services = %d, want 7", res.TotalServices)
	}
	// Widget+Colliding deploy on both Java servers; Gadget on WCF.
	if res.TotalPublished != 2+2+1 {
		t.Errorf("published = %d, want 5", res.TotalPublished)
	}
	// The case-colliding custom class trips Axis2 on both Java
	// servers, exactly like the built-in narrative classes.
	for _, server := range []string{"Metro", "JBossWS CXF"} {
		if got := res.Matrix["Apache Axis2"][server].CompileErrors; got != 1 {
			t.Errorf("Axis2 × %s compile errors = %d, want 1", server, got)
		}
	}
}
