package framework

import (
	"slices"
	"testing"

	"wsinterop/internal/artifact"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/xsd"
)

// featuresFor parses a hand-built document through the analyzer.
func featuresFor(t *testing.T, d *wsdl.Definitions) *docFeatures {
	t.Helper()
	raw, err := wsdl.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	f, err := analyze(raw)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return f
}

// miniDoc builds a small document-literal echo description around the
// given parameter complex type.
func miniDoc(param xsd.ComplexType) *wsdl.Definitions {
	tns := "http://mini.test/"
	paramRef := xsd.QName{Space: tns, Local: param.Name}
	sch := &xsd.Schema{
		TargetNamespace:    tns,
		ElementFormDefault: "qualified",
		ComplexTypes:       []xsd.ComplexType{param},
		Elements: []xsd.Element{
			{Name: "echo", Inline: &xsd.ComplexType{Sequence: []xsd.Element{
				{Name: "input", Type: paramRef, Occurs: xsd.Once},
			}}},
			{Name: "echoResponse", Inline: &xsd.ComplexType{Sequence: []xsd.Element{
				{Name: "return", Type: paramRef, Occurs: xsd.Once},
			}}},
		},
	}
	return &wsdl.Definitions{
		Name:            "MiniService",
		TargetNamespace: tns,
		Types:           xsd.NewSchemaSet(sch),
		Messages: []wsdl.Message{
			{Name: "in", Parts: []wsdl.Part{{Name: "parameters", Element: xsd.QName{Space: tns, Local: "echo"}}}},
			{Name: "out", Parts: []wsdl.Part{{Name: "parameters", Element: xsd.QName{Space: tns, Local: "echoResponse"}}}},
		},
		PortTypes: []wsdl.PortType{{Name: "PT", Operations: []wsdl.Operation{{
			Name: "echo", Input: wsdl.IORef{Message: "in"}, Output: wsdl.IORef{Message: "out"},
		}}}},
		Bindings: []wsdl.Binding{{
			Name: "B", PortType: "PT", Transport: wsdl.NamespaceSOAPHTTP,
			Style:      wsdl.StyleDocument,
			Operations: []wsdl.BindingOperation{{Name: "echo"}},
		}},
		Services: []wsdl.Service{{Name: "S", Ports: []wsdl.Port{{Name: "P", Binding: "B", Location: "http://x/"}}}},
	}
}

func TestOperationParameterDocumentStyle(t *testing.T) {
	f := featuresFor(t, miniDoc(xsd.ComplexType{
		Name: "Widget",
		Sequence: []xsd.Element{
			{Name: "first", Type: xsd.TypeString, Occurs: xsd.Once},
			{Name: "second", Type: xsd.TypeInt, Occurs: xsd.Once},
		},
	}))
	typeName, firstField := operationParameter(f, "echo")
	if typeName != "Widget" || firstField != "first" {
		t.Errorf("operationParameter = %q, %q", typeName, firstField)
	}
	if tn, ff := operationParameter(f, "noSuchOp"); tn != "" || ff != "" {
		t.Errorf("unknown operation should resolve to nothing, got %q %q", tn, ff)
	}
}

func TestUnitBuilderPortFirst(t *testing.T) {
	f := featuresFor(t, miniDoc(xsd.ComplexType{
		Name:     "Widget",
		Sequence: []xsd.Element{{Name: "v", Type: xsd.TypeString, Occurs: xsd.Once}},
	}))
	b := unitBuilder{lang: artifact.LangJava, stemSfx: "Port", unitName: "MiniService"}
	u := b.build(f)
	if u.PortClass() == nil || u.PortClass().Name != "MiniServicePort" {
		t.Fatalf("port class misplaced: %+v", u.Classes)
	}
	if u.MethodCount() != 1 {
		t.Errorf("method count = %d, want 1", u.MethodCount())
	}
	if diags := artifact.NewCompiler(artifact.LangJava).Compile(u); len(diags) != 0 {
		t.Errorf("mini unit should compile: %v", diags)
	}
}

func TestRenameCaseCollisionsSuffixes(t *testing.T) {
	f := featuresFor(t, miniDoc(xsd.ComplexType{
		Name: "Tri",
		Sequence: []xsd.Element{
			{Name: "x", Type: xsd.TypeString, Occurs: xsd.Once},
			{Name: "X", Type: xsd.TypeString, Occurs: xsd.Once},
			{Name: "x_2", Type: xsd.TypeString, Occurs: xsd.Once},
		},
	}))
	b := unitBuilder{lang: artifact.LangVB, stemSfx: "Proxy", unitName: "M", renameCaseCollisions: true}
	u := b.build(f)
	var tri *artifact.Class
	for i := range u.Classes {
		if u.Classes[i].Name == "Tri" {
			tri = &u.Classes[i]
		}
	}
	if tri == nil {
		t.Fatal("Tri class missing")
	}
	if diags := artifact.Errors(artifact.NewCompiler(artifact.LangVB).Compile(u)); len(diags) != 0 {
		t.Errorf("renamed members must satisfy the VB compiler: %v\nfields: %+v", diags, tri.Fields)
	}
}

func TestUnitBuilderSkipsAnonymousTypes(t *testing.T) {
	// Wrapper elements use anonymous inline types; they must not leak
	// into the unit as named classes.
	f := featuresFor(t, miniDoc(xsd.ComplexType{
		Name:     "Widget",
		Sequence: []xsd.Element{{Name: "v", Type: xsd.TypeString, Occurs: xsd.Once}},
	}))
	b := unitBuilder{lang: artifact.LangJava, stemSfx: "Port", unitName: "M"}
	u := b.build(f)
	if len(u.Classes) != 2 { // port + Widget
		t.Errorf("classes = %d, want 2: %+v", len(u.Classes), u.Classes)
	}
}

func TestLowerFirst(t *testing.T) {
	tests := []struct{ in, want string }{
		{"FooException", "fooException"}, {"", ""}, {"x", "x"},
	}
	for _, tt := range tests {
		if got := lowerFirst(tt.in); got != tt.want {
			t.Errorf("lowerFirst(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestAnalyzeStyleDetection(t *testing.T) {
	d := miniDoc(xsd.ComplexType{
		Name:     "Widget",
		Sequence: []xsd.Element{{Name: "v", Type: xsd.TypeString, Occurs: xsd.Once}},
	})
	f := featuresFor(t, d)
	if f.style != styleJava {
		t.Error("empty soapAction should read as the Java convention")
	}
	d.Bindings[0].Operations[0].SOAPAction = "http://tempuri.org/echo"
	f = featuresFor(t, d)
	if f.style != styleDotNet {
		t.Error("non-empty soapAction should read as the .NET convention")
	}
}

// TestPortMethodsFollowPortTypes pins the invariant the campaign's wire
// modes rely on: every client's generated port class exposes exactly
// the document's operations, in port-type order, so the operation a
// wire cell invokes (the deployed document's first) is the generated
// proxy's first method. A zero-operation document yields a port with
// no methods. The sample strides over each server's catalog and adds
// the classes JBossWS publishes without operations.
func TestPortMethodsFollowPortTypes(t *testing.T) {
	clients := Clients()
	docs, zeroOps := 0, 0
	for _, server := range Servers() {
		cat, stride := typesys.JavaCatalog(), 20
		if server.Language() == typesys.CSharp {
			cat, stride = typesys.CSharpCatalog(), 70
		}
		var classes []*typesys.Class
		for i := 0; i < cat.Len(); i += stride {
			classes = append(classes, &cat.Classes[i])
		}
		for _, name := range []string{typesys.JavaFuture, typesys.JavaResponse} {
			if cls, ok := cat.Lookup(name); ok {
				classes = append(classes, cls)
			}
		}
		for _, cls := range classes {
			doc, err := server.Publish(services.ForClass(cls))
			if err != nil {
				continue // not deployable: no document
			}
			raw, err := wsdl.Marshal(doc)
			if err != nil {
				t.Fatalf("marshal %s on %s: %v", cls.Name, server.Name(), err)
			}
			a, err := Analyze(raw)
			if err != nil {
				t.Fatalf("analyze %s on %s: %v", cls.Name, server.Name(), err)
			}
			var want []string
			for _, pt := range doc.PortTypes {
				for _, op := range pt.Operations {
					want = append(want, op.Name)
				}
			}
			docs++
			if len(want) == 0 {
				zeroOps++
			}
			for _, c := range clients {
				gen := c.GenerateAnalyzed(a)
				if gen.Unit == nil {
					continue
				}
				var got []string
				if port := gen.Unit.PortClass(); port != nil {
					for _, m := range port.Methods {
						got = append(got, m.Name)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s on %s's %s: port methods %q, want the port-type operations %q",
						c.Name(), server.Name(), cls.Name, got, want)
				}
				ReleaseUnit(gen.Unit)
			}
		}
	}
	if docs == 0 || zeroOps == 0 {
		t.Fatalf("covered %d documents, %d without operations; want both above zero", docs, zeroOps)
	}
	t.Logf("%d documents (%d without operations) × %d clients", docs, zeroOps, len(clients))
}
