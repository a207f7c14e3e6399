package xsd

import (
	"bytes"
	"strings"
	"testing"
)

// equivalenceSchemas enumerates schema shapes chosen to hit every
// branch of the hand-rolled writer: empty blocks, facets (which
// re-declare the XSD namespace), extension bases, inline anonymous
// types, wildcards, occurs variants, foreign-namespace prefixes in
// construction order, and attribute values needing every escape form.
func equivalenceSchemas() map[string]*Schema {
	foreignA := QName{Space: "urn:foreign-a", Local: "ThingA"}
	foreignB := QName{Space: "urn:foreign-b", Local: "ThingB"}
	return map[string]*Schema{
		"empty": {TargetNamespace: "urn:empty"},
		"no-target-namespace": {
			Elements: []Element{{Name: "root", Type: TypeString}},
		},
		"qualified": {
			TargetNamespace:    "urn:q",
			ElementFormDefault: "qualified",
			Elements:           []Element{{Name: "root", Type: TypeString}},
		},
		"imports": {
			TargetNamespace: "urn:imp",
			Imports: []Import{
				{Namespace: "urn:located", SchemaLocation: "http://example.com/a.xsd"},
				{Namespace: "urn:bare"},
			},
		},
		"simple-types": {
			TargetNamespace: "urn:st",
			SimpleTypes: []SimpleType{
				{Name: "Bare", Base: TypeString},
				{Name: "", Base: TypeInt},
				{Name: "Faceted", Base: TypeString, Facets: []Facet{
					{Name: "maxLength", Value: "10"},
					{Name: "pattern", Value: `[a-z<>&"']+`},
					{Name: "CLR-Facet_1", Value: "odd but valid name"},
				}},
			},
		},
		"complex-kitchen-sink": {
			TargetNamespace: "urn:ct",
			ComplexTypes: []ComplexType{
				{Name: "Empty"},
				{Name: "Abstract", Abstract: true},
				{Name: "Seq", Sequence: []Element{
					{Name: "a", Type: TypeString, Occurs: Optional, Nillable: true},
					{Name: "b", Type: foreignA, Occurs: Unbounded},
					{Name: "c", Ref: foreignB},
					{Name: "weird", Type: TypeInt, Occurs: Occurs{Min: 2, Max: 7}},
				}},
				{Name: "WithAny", Any: []AnyParticle{
					{Namespace: "##any", ProcessContents: "lax", Occurs: Unbounded},
					{},
				}},
				{Name: "Attrs", Attributes: []Attribute{
					{Name: "id", Type: TypeString},
					{Ref: QName{Space: NamespaceXML, Local: "lang"}},
					{Name: "f", Type: QName{Space: "urn:foreign-c", Local: "AttrT"}},
				}},
				{Name: "Derived", Base: QName{Space: "urn:ct", Local: "Seq"},
					Sequence: []Element{{Name: "extra", Type: TypeBoolean}}},
				{Name: "DerivedEmpty", Base: foreignA,
					Attributes: []Attribute{{Name: "x", Type: TypeString}}},
				{Name: "Inline", Sequence: []Element{
					{Name: "nested", Inline: &ComplexType{
						// The inline form must drop the name attribute.
						Name: "ShouldNotAppear",
						Sequence: []Element{
							{Name: "deep", Inline: &ComplexType{
								Sequence: []Element{{Name: "leaf", Type: TypeString}},
							}},
						},
					}},
				}},
			},
		},
		"hostile-names": {
			TargetNamespace: "urn:hostile&<>\"'\t\n\rns" + string(rune(0x7)),
			Elements: []Element{
				{Name: "Hostile&<>\"'Name", Type: TypeString},
				{Name: "Ctrl" + string(rune(0x1)) + "Char", Type: TypeString},
				{Name: "Uni code�", Type: TypeString},
			},
			SimpleTypes: []SimpleType{
				{Name: "esc<>&", Base: TypeString, Facets: []Facet{
					{Name: "enumeration", Value: "a&b<c>d\"e'f\tg\nh\ri"},
				}},
			},
		},
		"foreign-prefix-order": {
			// The extension base is resolved AFTER sequence and attribute
			// refs during wire-struct construction but printed first; the
			// q-prefix numbering must follow construction order.
			TargetNamespace: "urn:order",
			ComplexTypes: []ComplexType{
				{
					Name:       "T",
					Base:       QName{Space: "urn:z-base", Local: "B"},
					Sequence:   []Element{{Name: "s", Type: QName{Space: "urn:a-seq", Local: "S"}}},
					Attributes: []Attribute{{Name: "at", Type: QName{Space: "urn:m-attr", Local: "A"}}},
				},
			},
		},
	}
}

// TestMarshalSchemaToPrefix checks the streamed form used by the WSDL
// writer: every line carries the base prefix and the bytes otherwise
// match MarshalSchema.
func TestMarshalSchemaToPrefix(t *testing.T) {
	sch := equivalenceSchemas()["complex-kitchen-sink"]
	flat, err := MarshalSchema(sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := MarshalSchemaTo(&buf, sch, nil, "    "); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, line := range strings.Split(string(flat), "\n") {
		if i > 0 {
			want.WriteByte('\n')
		}
		if line != "" {
			want.WriteString("    ")
		}
		want.WriteString(line)
	}
	if buf.String() != want.String() {
		t.Errorf("prefixed output diverges\ngot:\n%s\nwant:\n%s", buf.String(), want.String())
	}
}

// EquivalenceSchemas exposes the edge-case schemas to the reference
// tests of the external test package.
var EquivalenceSchemas = equivalenceSchemas
