package wsinterop

import (
	"bytes"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/xsd"
	"wsinterop/internal/xsd/xsdtest"
)

// TestMarshalSchemaEquivalenceCorpus is the full-corpus differential
// proof for the hand-rolled schema writer (DESIGN.md §10): every
// schema block of every document any server publishes must serialize
// byte-identically through xsd.MarshalSchema (fastwrite.go) and
// xsdtest.MarshalSchemaReference (the retained encoding/xml oracle). The
// shape-template verification, journal resume re-split, and golden
// outputs all assume these bytes are stable.
func TestMarshalSchemaEquivalenceCorpus(t *testing.T) {
	limit := 0 // all classes
	if testing.Short() {
		limit = 400
	}
	catalogs := map[typesys.Language]*typesys.Catalog{
		typesys.Java:   typesys.JavaCatalog(),
		typesys.CSharp: typesys.CSharpCatalog(),
	}
	schemas, diverged := 0, 0
	for _, server := range framework.Servers() {
		defs := services.GenerateVariant(catalogs[server.Language()], services.VariantSimple)
		if limit > 0 && len(defs) > limit {
			defs = defs[:limit]
		}
		for _, def := range defs {
			doc, err := server.Publish(def)
			if err != nil {
				continue // not deployable; nothing to serialize
			}
			if doc.Types == nil {
				continue
			}
			for _, sch := range doc.Types.Schemas {
				want, err := xsdtest.MarshalSchemaReference(sch, nil)
				if err != nil {
					t.Fatalf("%s/%s: reference marshal: %v", server.Name(), def.Name, err)
				}
				got, err := xsd.MarshalSchema(sch, nil)
				if err != nil {
					t.Fatalf("%s/%s: fast marshal: %v", server.Name(), def.Name, err)
				}
				schemas++
				if !bytes.Equal(got, want) {
					diverged++
					if diverged <= 3 {
						t.Errorf("%s/%s schema %q diverges\nfast:\n%s\nreference:\n%s",
							server.Name(), def.Name, sch.TargetNamespace, got, want)
					}
				}
			}
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d schema blocks diverged", diverged, schemas)
	}
	if schemas == 0 {
		t.Fatal("corpus produced no schema blocks")
	}
	t.Logf("verified %d schema blocks byte-identical", schemas)
}
