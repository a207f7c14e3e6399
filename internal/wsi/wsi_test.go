package wsi

import (
	"strings"
	"testing"

	"wsinterop/internal/wsdl"
	"wsinterop/internal/xsd"
)

// cleanDoc builds a document that passes every assertion.
func cleanDoc() *wsdl.Definitions {
	tns := "http://clean.test/"
	sch := &xsd.Schema{
		TargetNamespace:    tns,
		ElementFormDefault: "qualified",
		ComplexTypes: []xsd.ComplexType{{
			Name:     "Payload",
			Sequence: []xsd.Element{{Name: "v", Type: xsd.TypeString, Occurs: xsd.Once}},
		}},
		Elements: []xsd.Element{
			{Name: "echo", Inline: &xsd.ComplexType{Sequence: []xsd.Element{
				{Name: "input", Type: xsd.QName{Space: tns, Local: "Payload"}, Occurs: xsd.Once},
			}}},
			{Name: "echoResponse", Inline: &xsd.ComplexType{Sequence: []xsd.Element{
				{Name: "return", Type: xsd.QName{Space: tns, Local: "Payload"}, Occurs: xsd.Once},
			}}},
		},
	}
	return &wsdl.Definitions{
		Name:            "Clean",
		TargetNamespace: tns,
		Types:           xsd.NewSchemaSet(sch),
		Messages: []wsdl.Message{
			{Name: "in", Parts: []wsdl.Part{{Name: "parameters", Element: xsd.QName{Space: tns, Local: "echo"}}}},
			{Name: "out", Parts: []wsdl.Part{{Name: "parameters", Element: xsd.QName{Space: tns, Local: "echoResponse"}}}},
		},
		PortTypes: []wsdl.PortType{{
			Name: "PT",
			Operations: []wsdl.Operation{{
				Name: "echo", Input: wsdl.IORef{Message: "in"}, Output: wsdl.IORef{Message: "out"},
			}},
		}},
		Bindings: []wsdl.Binding{{
			Name: "B", PortType: "PT",
			Transport: wsdl.NamespaceSOAPHTTP, Style: wsdl.StyleDocument,
			Operations: []wsdl.BindingOperation{{
				Name: "echo", InputUse: wsdl.UseLiteral, OutputUse: wsdl.UseLiteral,
			}},
		}},
		Services: []wsdl.Service{{
			Name:  "S",
			Ports: []wsdl.Port{{Name: "P", Binding: "B", Location: "http://localhost/clean"}},
		}},
	}
}

func violated(r *Report, id string) bool {
	for _, v := range r.Violations {
		if v.Assertion.ID == id {
			return true
		}
	}
	return false
}

func TestCleanDocumentPasses(t *testing.T) {
	r := NewChecker().Check(cleanDoc())
	if len(r.Violations) != 0 {
		t.Errorf("clean document has findings: %v", r.Violations)
	}
	if !r.Compliant() {
		t.Error("clean document should be compliant")
	}
}

func TestNilDocument(t *testing.T) {
	r := NewChecker().Check(nil)
	if r.Compliant() {
		t.Error("nil document must not be compliant")
	}
	if !violated(r, AssertionBindingResolves.ID) {
		t.Errorf("expected R2101, got %v", r.Violations)
	}
}

func TestUnresolvedReferenceFailsR2001(t *testing.T) {
	d := cleanDoc()
	sch := d.Types.Schemas[0]
	sch.ComplexTypes[0].Sequence = append(sch.ComplexTypes[0].Sequence, xsd.Element{
		Ref: xsd.QName{Space: "http://www.w3.org/2005/08/addressing", Local: "EndpointReference"},
	})
	r := NewChecker().Check(d)
	if !violated(r, AssertionResolvableRefs.ID) {
		t.Errorf("expected R2001, got %v", r.Violations)
	}
	if r.Compliant() {
		t.Error("document with dangling reference must not be compliant")
	}
}

func TestImportWithoutLocationFailsR2007(t *testing.T) {
	d := cleanDoc()
	d.Types.Schemas[0].Imports = []xsd.Import{{Namespace: "http://ext/"}}
	r := NewChecker().Check(d)
	if !violated(r, AssertionImportLocation.ID) {
		t.Errorf("expected R2007, got %v", r.Violations)
	}
}

func TestMissingTargetNamespaceFailsR2105(t *testing.T) {
	d := cleanDoc()
	d.Types.Schemas[0].TargetNamespace = ""
	r := NewChecker().Check(d)
	if !violated(r, AssertionTargetNamespace.ID) {
		t.Errorf("expected R2105, got %v", r.Violations)
	}
}

func TestNonStandardFacetFailsR2112(t *testing.T) {
	d := cleanDoc()
	d.Types.Schemas[0].SimpleTypes = []xsd.SimpleType{{
		Name: "Odd", Base: xsd.TypeString,
		Facets: []xsd.Facet{{Name: "jaxb-format", Value: "x"}},
	}}
	r := NewChecker().Check(d)
	if !violated(r, AssertionStandardFacets.ID) {
		t.Errorf("expected R2112, got %v", r.Violations)
	}
}

func TestStandardFacetPasses(t *testing.T) {
	d := cleanDoc()
	d.Types.Schemas[0].SimpleTypes = []xsd.SimpleType{{
		Name: "Fine", Base: xsd.TypeString,
		Facets: []xsd.Facet{{Name: "pattern", Value: "[a-z]+"}},
	}}
	r := NewChecker().Check(d)
	if len(r.Violations) != 0 {
		t.Errorf("standard facet should pass, got %v", r.Violations)
	}
}

func TestXMLLangAttributeFailsR2113(t *testing.T) {
	d := cleanDoc()
	d.Types.Schemas[0].ComplexTypes[0].Attributes = []xsd.Attribute{
		{Ref: xsd.QName{Space: xsd.NamespaceXML, Local: "lang"}},
	}
	r := NewChecker().Check(d)
	if !violated(r, AssertionNoForeignAttrs.ID) {
		t.Errorf("expected R2113, got %v", r.Violations)
	}
}

func TestXMLLangInsideInlineTypeDetected(t *testing.T) {
	d := cleanDoc()
	sch := d.Types.Schemas[0]
	sch.Elements[0].Inline.Sequence = append(sch.Elements[0].Inline.Sequence, xsd.Element{
		Name: "nested",
		Inline: &xsd.ComplexType{
			Attributes: []xsd.Attribute{{Ref: xsd.QName{Space: xsd.NamespaceXML, Local: "lang"}}},
		},
	})
	r := NewChecker().Check(d)
	if !violated(r, AssertionNoForeignAttrs.ID) {
		t.Errorf("expected R2113 for nested attribute, got %v", r.Violations)
	}
}

func TestNonHTTPTransportFailsR2702(t *testing.T) {
	d := cleanDoc()
	d.Bindings[0].Transport = "http://schemas.xmlsoap.org/soap/smtp"
	r := NewChecker().Check(d)
	if !violated(r, AssertionSOAPTransport.ID) {
		t.Errorf("expected R2702, got %v", r.Violations)
	}
}

func TestEncodedUseFailsR2706(t *testing.T) {
	d := cleanDoc()
	d.Bindings[0].Operations[0].InputUse = wsdl.UseEncoded
	r := NewChecker().Check(d)
	if !violated(r, AssertionLiteralUse.ID) {
		t.Errorf("expected R2706, got %v", r.Violations)
	}
}

func TestDuplicateOperationsFailR2304(t *testing.T) {
	d := cleanDoc()
	ops := d.PortTypes[0].Operations
	d.PortTypes[0].Operations = append(ops, ops[0])
	d.Bindings[0].Operations = append(d.Bindings[0].Operations, d.Bindings[0].Operations[0])
	r := NewChecker().Check(d)
	if !violated(r, AssertionUniqueOperations.ID) {
		t.Errorf("expected R2304, got %v", r.Violations)
	}
}

func TestNoServiceFailsR2800(t *testing.T) {
	d := cleanDoc()
	d.Services = nil
	r := NewChecker().Check(d)
	if !violated(r, AssertionServicePresent.ID) {
		t.Errorf("expected R2800, got %v", r.Violations)
	}
}

func TestTypePartUnderDocumentStyleFailsR2204(t *testing.T) {
	d := cleanDoc()
	d.Messages[0].Parts[0] = wsdl.Part{Name: "arg", Type: xsd.TypeString}
	r := NewChecker().Check(d)
	if !violated(r, AssertionPartReference.ID) {
		t.Errorf("expected R2204, got %v", r.Violations)
	}
}

func TestZeroOperationsExtendedAssertion(t *testing.T) {
	d := cleanDoc()
	d.PortTypes[0].Operations = nil
	d.Bindings[0].Operations = nil
	d.Messages = nil

	r := NewChecker().Check(d)
	if !violated(r, AssertionHasOperations.ID) {
		t.Errorf("expected EXT4001, got %v", r.Violations)
	}
	if !r.Compliant() {
		// The whole point of the paper's §IV.A recommendation: the
		// official profile passes such documents.
		t.Error("zero-operation document should remain profile-compliant")
	}
	if ext := extendedFindings(r); len(ext) != 1 {
		t.Errorf("expected 1 extended finding, got %v", ext)
	}

	official := NewChecker(WithoutExtended()).Check(d)
	if violated(official, AssertionHasOperations.ID) {
		t.Error("official mode must not run extended assertions")
	}
	if len(official.Violations) != 0 {
		t.Errorf("official mode findings: %v", official.Violations)
	}
}

func TestWildcardIsCompliant(t *testing.T) {
	d := cleanDoc()
	d.Types.Schemas[0].ComplexTypes[0].Any = []xsd.AnyParticle{
		{Namespace: "##any", ProcessContents: "lax"},
	}
	r := NewChecker().Check(d)
	if !r.Compliant() || len(r.Violations) != 0 {
		// s:any is legal schema — the paper's DataTable services pass
		// WS-I despite being unusable by several generators.
		t.Errorf("wildcard content should be compliant, got %v", r.Violations)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Assertion: AssertionResolvableRefs, Detail: "dangling thing"}
	s := v.String()
	if !strings.Contains(s, "R2001") || !strings.Contains(s, "dangling thing") {
		t.Errorf("unhelpful violation string: %q", s)
	}
}

func TestAllAssertionsHaveUniqueIDs(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range AllAssertions() {
		if a.ID == "" || a.Description == "" {
			t.Errorf("assertion %+v incomplete", a)
		}
		if seen[a.ID] {
			t.Errorf("duplicate assertion ID %s", a.ID)
		}
		seen[a.ID] = true
	}
}

// extendedFindings returns only the extended (beyond-profile)
// violations of a report.
func extendedFindings(r *Report) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Assertion.Extended {
			out = append(out, v)
		}
	}
	return out
}
