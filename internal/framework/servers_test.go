package framework

import (
	"errors"
	"strings"
	"testing"

	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
	"wsinterop/internal/xsd"
)

func mustPublish(t *testing.T, s ServerFramework, className string) *wsdl.Definitions {
	t.Helper()
	cat := typesys.JavaCatalog()
	if s.Language() == typesys.CSharp {
		cat = typesys.CSharpCatalog()
	}
	cls, ok := cat.Lookup(className)
	if !ok {
		t.Fatalf("class %q not in catalog", className)
	}
	doc, err := s.Publish(services.ForClass(cls))
	if err != nil {
		t.Fatalf("publish %s on %s: %v", className, s.Name(), err)
	}
	return doc
}

func TestServerIdentities(t *testing.T) {
	servers := Servers()
	if len(servers) != 3 {
		t.Fatalf("expected 3 servers, got %d", len(servers))
	}
	wantNames := []string{"Metro", "JBossWS CXF", "WCF .NET"}
	wantLangs := []typesys.Language{typesys.Java, typesys.Java, typesys.CSharp}
	for i, s := range servers {
		if s.Name() != wantNames[i] {
			t.Errorf("server %d name = %q, want %q", i, s.Name(), wantNames[i])
		}
		if s.Language() != wantLangs[i] {
			t.Errorf("server %d language = %v, want %v", i, s.Language(), wantLangs[i])
		}
		if s.Server() == "" {
			t.Errorf("server %d has no hosting application server", i)
		}
	}
}

func TestPublishCountsMatchPaper(t *testing.T) {
	tests := []struct {
		server ServerFramework
		want   int
	}{
		{NewMetroServer(), 2489},
		{NewJBossWSServer(), 2248},
		{NewWCFServer(), 2502},
	}
	for _, tt := range tests {
		t.Run(tt.server.Name(), func(t *testing.T) {
			cat := typesys.JavaCatalog()
			if tt.server.Language() == typesys.CSharp {
				cat = typesys.CSharpCatalog()
			}
			published := 0
			for i := range cat.Classes {
				if _, err := tt.server.Publish(services.ForClass(&cat.Classes[i])); err == nil {
					published++
				} else {
					var nd *NotDeployableError
					if !errors.As(err, &nd) {
						t.Fatalf("unexpected error type: %v", err)
					}
				}
			}
			if published != tt.want {
				t.Errorf("%s published %d services, want %d", tt.server.Name(), published, tt.want)
			}
		})
	}
}

func TestMetroRefusesAsyncHandles(t *testing.T) {
	metro := NewMetroServer()
	cls, _ := typesys.JavaCatalog().Lookup(typesys.JavaFuture)
	_, err := metro.Publish(services.ForClass(cls))
	var nd *NotDeployableError
	if !errors.As(err, &nd) {
		t.Fatalf("expected NotDeployableError, got %v", err)
	}
	if !strings.Contains(nd.Reason, "refused") {
		t.Errorf("refusal reason %q should mention refusal", nd.Reason)
	}
}

func TestJBossWSPublishesZeroOperationWSDL(t *testing.T) {
	jboss := NewJBossWSServer()
	for _, name := range []string{typesys.JavaFuture, typesys.JavaResponse} {
		doc := mustPublish(t, jboss, name)
		if doc.OperationCount() != 0 {
			t.Errorf("%s: expected zero operations, got %d", name, doc.OperationCount())
		}
		if len(doc.Services) != 1 {
			t.Errorf("%s: service section missing", name)
		}
		rep := wsi.NewChecker().Check(doc)
		if !rep.Compliant() {
			t.Errorf("%s: zero-operation WSDL must pass the official profile, got %v", name, rep.Violations)
		}
		extended := 0
		for _, v := range rep.Violations {
			if v.Assertion.Extended {
				extended++
			}
		}
		if extended != 1 {
			t.Errorf("%s: extended check should flag it, got %v", name, rep.Violations)
		}
	}
	// Future's types section is empty; Response's is not.
	future := mustPublish(t, jboss, typesys.JavaFuture)
	if len(future.Types.Schemas) != 0 {
		t.Error("Future should publish an empty types section")
	}
	response := mustPublish(t, jboss, typesys.JavaResponse)
	if len(response.Types.Schemas) == 0 {
		t.Error("Response should publish a schema")
	}
}

func TestJavaEmittersSoapActionEmpty(t *testing.T) {
	for _, s := range []ServerFramework{NewMetroServer(), NewJBossWSServer()} {
		doc := mustPublish(t, s, typesys.JavaXMLGregorianCalendar)
		for _, b := range doc.Bindings {
			for _, op := range b.Operations {
				if op.SOAPAction != "" {
					t.Errorf("%s: soapAction = %q, want empty", s.Name(), op.SOAPAction)
				}
			}
		}
	}
}

func TestWCFSoapActionSet(t *testing.T) {
	doc := mustPublish(t, NewWCFServer(), typesys.CSharpSocketError)
	for _, b := range doc.Bindings {
		for _, op := range b.Operations {
			if op.SOAPAction == "" {
				t.Error("WCF must emit non-empty soapAction")
			}
		}
	}
}

func TestAddressingRefVariants(t *testing.T) {
	// Metro: no import at all. JBossWS: import without schemaLocation.
	metroDoc := mustPublish(t, NewMetroServer(), typesys.JavaW3CEndpointReference)
	if len(metroDoc.Types.Schemas[0].Imports) != 0 {
		t.Error("Metro variant must not declare an import")
	}
	jbossDoc := mustPublish(t, NewJBossWSServer(), typesys.JavaW3CEndpointReference)
	imports := jbossDoc.Types.Schemas[0].Imports
	if len(imports) != 1 || imports[0].SchemaLocation != "" {
		t.Errorf("JBossWS variant must declare a location-less import, got %+v", imports)
	}
	for name, doc := range map[string]*wsdl.Definitions{"Metro": metroDoc, "JBossWS": jbossDoc} {
		unresolved, err := doc.Types.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(unresolved) != 1 {
			t.Errorf("%s: expected 1 dangling reference, got %v", name, unresolved)
		}
	}
}

func TestVendorFacetVariants(t *testing.T) {
	metroDoc := mustPublish(t, NewMetroServer(), typesys.JavaSimpleDateFormat)
	jbossDoc := mustPublish(t, NewJBossWSServer(), typesys.JavaSimpleDateFormat)
	facetOf := func(d *wsdl.Definitions) string {
		for _, st := range d.Types.Schemas[0].SimpleTypes {
			for _, f := range st.Facets {
				if !xsd.IsStandardFacet(f.Name) {
					return f.Name
				}
			}
		}
		return ""
	}
	if got := facetOf(metroDoc); got != "jaxb-format" {
		t.Errorf("Metro facet = %q, want jaxb-format", got)
	}
	if got := facetOf(jbossDoc); got != "cxf-format" {
		t.Errorf("JBossWS facet = %q, want cxf-format", got)
	}
}

func TestWCFSchemaRefVariants(t *testing.T) {
	wcf := NewWCFServer()
	cat := typesys.CSharpCatalog()

	variants := []struct {
		hint  typesys.Hint
		check func(f *docFeatures) bool
		name  string
	}{
		{typesys.HintSchemaRefNested, func(f *docFeatures) bool { return f.schemaRefNested }, "nested"},
		{typesys.HintSchemaRefWithAny, func(f *docFeatures) bool { return f.schemaRefWithAny }, "with any"},
		{typesys.HintSchemaRefUnbounded, func(f *docFeatures) bool { return f.schemaRefUnbounded }, "unbounded"},
		{typesys.HintNillableRef, func(f *docFeatures) bool { return f.schemaRefNillable }, "nillable"},
		{typesys.HintOptionalRef, func(f *docFeatures) bool { return f.schemaRefOptional }, "optional"},
	}
	for _, v := range variants {
		classes := cat.WithHint(v.hint)
		if len(classes) == 0 {
			t.Fatalf("no classes with hint for %s", v.name)
		}
		doc := mustPublish(t, wcf, classes[0].Name)
		raw, err := wsdl.Marshal(doc)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		f, err := analyze(raw)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		if len(f.schemaRefs) == 0 {
			t.Errorf("%s: xs:schema reference lost", v.name)
		}
		if !v.check(f) {
			t.Errorf("%s: structural marker not detected after round trip", v.name)
		}
		if f.langAttrRefs == 0 {
			t.Errorf("%s: xml:lang attribute missing", v.name)
		}
	}
}

func TestWCFDoubleLang(t *testing.T) {
	cls := typesys.CSharpCatalog().WithHint(typesys.HintDoubleLang)[0]
	doc := mustPublish(t, NewWCFServer(), cls.Name)
	raw, err := wsdl.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := analyze(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.langAttrRefs != 2 {
		t.Errorf("double-lang class has %d lang refs, want 2", f.langAttrRefs)
	}
}

func TestWCFDeepNesting(t *testing.T) {
	cls := typesys.CSharpCatalog().WithHint(typesys.HintDeepNesting)[0]
	doc := mustPublish(t, NewWCFServer(), cls.Name)
	raw, err := wsdl.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := analyze(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.maxNesting <= jscriptMaxNesting {
		t.Errorf("deep-nesting class nests to %d, want > %d", f.maxNesting, jscriptMaxNesting)
	}
}

func TestWCFWildcardCompliantButDetected(t *testing.T) {
	doc := mustPublish(t, NewWCFServer(), typesys.CSharpDataTable)
	rep := wsi.NewChecker().Check(doc)
	if !rep.Compliant() {
		t.Errorf("DataTable WSDL should be WS-I compliant, got %v", rep.Violations)
	}
	raw, err := wsdl.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := analyze(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !f.wildcardOnly {
		t.Error("wildcard content model not detected")
	}
	if len(f.caseCollidingTypes) == 0 {
		t.Error("case-colliding companion type not detected")
	}
}

func TestWSIFlagCountsPerServer(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus scan skipped in -short mode")
	}
	checker := wsi.NewChecker()
	tests := []struct {
		server ServerFramework
		want   int
	}{
		{NewMetroServer(), 2},
		{NewJBossWSServer(), 4},
		{NewWCFServer(), 80},
	}
	for _, tt := range tests {
		t.Run(tt.server.Name(), func(t *testing.T) {
			cat := typesys.JavaCatalog()
			if tt.server.Language() == typesys.CSharp {
				cat = typesys.CSharpCatalog()
			}
			flagged := 0
			for i := range cat.Classes {
				doc, err := tt.server.Publish(services.ForClass(&cat.Classes[i]))
				if err != nil {
					continue
				}
				if len(checker.Check(doc).Violations) > 0 {
					flagged++
				}
			}
			if flagged != tt.want {
				t.Errorf("%s flagged %d services, want %d", tt.server.Name(), flagged, tt.want)
			}
		})
	}
}

func TestPublishedDocumentsValidate(t *testing.T) {
	// Structural integrity: every published document passes
	// wsdl.Validate and marshals/parses cleanly.
	for _, server := range Servers() {
		cat := typesys.JavaCatalog()
		if server.Language() == typesys.CSharp {
			cat = typesys.CSharpCatalog()
		}
		checked := 0
		for i := range cat.Classes {
			if checked >= 200 {
				break
			}
			doc, err := server.Publish(services.ForClass(&cat.Classes[i]))
			if err != nil {
				continue
			}
			checked++
			if errs := doc.Validate(); len(errs) != 0 {
				t.Fatalf("%s: %s: invalid document: %v", server.Name(), cat.Classes[i].Name, errs)
			}
			raw, err := wsdl.Marshal(doc)
			if err != nil {
				t.Fatalf("%s: %s: marshal: %v", server.Name(), cat.Classes[i].Name, err)
			}
			if _, err := wsdl.Unmarshal(raw); err != nil {
				t.Fatalf("%s: %s: reparse: %v", server.Name(), cat.Classes[i].Name, err)
			}
		}
	}
}

func TestNotDeployableErrorMessage(t *testing.T) {
	e := &NotDeployableError{Framework: "Metro", Class: "x.Y", Reason: "because"}
	for _, want := range []string{"Metro", "x.Y", "because"} {
		if !strings.Contains(e.Error(), want) {
			t.Errorf("error %q missing %q", e.Error(), want)
		}
	}
}
