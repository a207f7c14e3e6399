package xsd_test

import (
	"bytes"
	"testing"

	"wsinterop/internal/xsd"
	"wsinterop/internal/xsd/xsdtest"
)

// TestMarshalSchemaMatchesReference proves the hand-rolled writer
// emits byte-identical output to the retained encoding/xml path for
// every synthetic edge case.
func TestMarshalSchemaMatchesReference(t *testing.T) {
	for name, sch := range xsd.EquivalenceSchemas() {
		t.Run(name, func(t *testing.T) {
			want, err := xsdtest.MarshalSchemaReference(sch, nil)
			if err != nil {
				t.Fatalf("reference marshal: %v", err)
			}
			got, err := xsd.MarshalSchema(sch, nil)
			if err != nil {
				t.Fatalf("fast marshal: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output diverges\nfast:\n%s\nreference:\n%s", got, want)
			}
		})
	}
}

// TestMarshalSchemaHostileFacetNames checks the writer replicates the
// reference encoder's quirks for degenerate facet element names: the
// name is emitted verbatim (no validation or escaping), and an empty
// name falls back to the wire field name without the namespace
// re-declaration.
func TestMarshalSchemaHostileFacetNames(t *testing.T) {
	for _, bad := range []string{"", "1leading", "sp ace", "a<b", "a&b"} {
		sch := &xsd.Schema{
			TargetNamespace: "urn:bad",
			SimpleTypes: []xsd.SimpleType{
				{Name: "S", Base: xsd.TypeString, Facets: []xsd.Facet{{Name: bad, Value: "v"}}},
			},
		}
		want, err := xsdtest.MarshalSchemaReference(sch, nil)
		if err != nil {
			t.Fatalf("facet name %q: reference marshal: %v", bad, err)
		}
		got, err := xsd.MarshalSchema(sch, nil)
		if err != nil {
			t.Fatalf("facet name %q: fast marshal: %v", bad, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("facet name %q diverges\nfast:\n%s\nreference:\n%s", bad, got, want)
		}
	}
}
