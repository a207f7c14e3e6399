package framework

import (
	"strings"
	"testing"

	"wsinterop/internal/artifact"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
)

// publishRaw publishes a class on a server and serializes the WSDL.
func publishRaw(t *testing.T, server ServerFramework, className string) []byte {
	t.Helper()
	doc := mustPublish(t, server, className)
	raw, err := wsdl.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return raw
}

// stepOutcome summarizes one client's run for assertions.
type stepOutcome struct {
	genWarn, genErr   bool
	compRan           bool
	compWarn, compErr bool
}

func runClient(client ClientFramework, doc []byte) stepOutcome {
	var o stepOutcome
	gen := Generate(client, doc)
	for _, i := range gen.Issues {
		if i.Severity >= artifact.SeverityError {
			o.genErr = true
		} else {
			o.genWarn = true
		}
	}
	if gen.Unit == nil {
		return o
	}
	o.compRan = true
	for _, d := range client.Verify(gen.Unit) {
		if d.Severity >= artifact.SeverityError {
			o.compErr = true
		} else {
			o.compWarn = true
		}
	}
	return o
}

func clientByName(t *testing.T, name string) ClientFramework {
	t.Helper()
	for _, c := range Clients() {
		if c.Name() == name {
			return c
		}
	}
	t.Fatalf("no client named %q", name)
	return nil
}

func TestClientRoster(t *testing.T) {
	clients := Clients()
	if len(clients) != 11 {
		t.Fatalf("expected 11 clients, got %d", len(clients))
	}
	seen := make(map[string]bool, len(clients))
	for _, c := range clients {
		if c.Name() == "" || c.Tool() == "" {
			t.Errorf("client %T lacks identity", c)
		}
		if seen[c.Name()] {
			t.Errorf("duplicate client name %q", c.Name())
		}
		seen[c.Name()] = true
	}
}

func TestCleanServiceInteroperatesEverywhere(t *testing.T) {
	// A plain bean service must work with all eleven clients — this is
	// the baseline the paper's error counts deviate from.
	var clean *typesys.Class
	for i := range typesys.JavaCatalog().Classes {
		c := &typesys.JavaCatalog().Classes[i]
		if c.Kind == typesys.KindBean && c.Hints == 0 {
			clean = c
			break
		}
	}
	doc := publishRaw(t, NewMetroServer(), clean.Name)
	for _, client := range Clients() {
		o := runClient(client, doc)
		if o.genErr || o.compErr {
			t.Errorf("%s: clean service failed: %+v", client.Name(), o)
		}
		switch client.Name() {
		case "Apache Axis1", "Apache Axis2":
			if !o.compWarn {
				t.Errorf("%s must emit unchecked-operations warnings", client.Name())
			}
		case ".NET JScript":
			if !o.genWarn {
				t.Errorf("JScript must warn on Java-convention documents")
			}
		}
	}
}

func TestW3CEndpointReferenceNarrative(t *testing.T) {
	// Table III row a/d: who fails on the dangling addressing ref.
	metroDoc := publishRaw(t, NewMetroServer(), typesys.JavaW3CEndpointReference)
	jbossDoc := publishRaw(t, NewJBossWSServer(), typesys.JavaW3CEndpointReference)

	wantErrOnMetro := map[string]bool{
		"Metro": true, "Apache Axis1": true, "Apache Axis2": true,
		"Apache CXF": true, "JBossWS CXF": true, ".NET C#": true,
		".NET Visual Basic": true, ".NET JScript": true,
		"gSOAP": false, "Zend Framework": false, "suds": true,
	}
	wantErrOnJBoss := map[string]bool{
		"Metro": true, "Apache Axis1": true, "Apache Axis2": false,
		"Apache CXF": true, "JBossWS CXF": true, ".NET C#": true,
		".NET Visual Basic": true, ".NET JScript": true,
		"gSOAP": false, "Zend Framework": false, "suds": false,
	}
	for _, client := range Clients() {
		if got := runClient(client, metroDoc).genErr; got != wantErrOnMetro[client.Name()] {
			t.Errorf("Metro variant × %s: genErr = %v, want %v", client.Name(), got, wantErrOnMetro[client.Name()])
		}
		if got := runClient(client, jbossDoc).genErr; got != wantErrOnJBoss[client.Name()] {
			t.Errorf("JBossWS variant × %s: genErr = %v, want %v", client.Name(), got, wantErrOnJBoss[client.Name()])
		}
	}
	// Zend absorbs the Metro variant silently and warns on the JBossWS
	// variant (the import-without-location emission).
	zend := clientByName(t, "Zend Framework")
	if runClient(zend, metroDoc).genWarn {
		t.Error("Zend should stay silent on the Metro variant")
	}
	if !runClient(zend, jbossDoc).genWarn {
		t.Error("Zend should warn on the JBossWS variant")
	}
}

func TestSimpleDateFormatNarrative(t *testing.T) {
	// Table III row b/e: the vendor facet breaks the three .NET
	// languages everywhere and gSOAP only on the Metro variant.
	metroDoc := publishRaw(t, NewMetroServer(), typesys.JavaSimpleDateFormat)
	jbossDoc := publishRaw(t, NewJBossWSServer(), typesys.JavaSimpleDateFormat)
	for _, name := range []string{".NET C#", ".NET Visual Basic", ".NET JScript"} {
		c := clientByName(t, name)
		if !runClient(c, metroDoc).genErr || !runClient(c, jbossDoc).genErr {
			t.Errorf("%s must fail on both vendor facet variants", name)
		}
	}
	gsoap := clientByName(t, "gSOAP")
	if !runClient(gsoap, metroDoc).genErr {
		t.Error("gSOAP must fail on the jaxb-format variant")
	}
	if runClient(gsoap, jbossDoc).genErr {
		t.Error("gSOAP must tolerate the cxf-format variant")
	}
	suds := clientByName(t, "suds")
	if !runClient(suds, jbossDoc).genWarn || runClient(suds, jbossDoc).genErr {
		t.Error("suds should warn (not fail) on the cxf-format variant")
	}
}

func TestZeroOperationNarrative(t *testing.T) {
	// §IV.B.1: Metro, Axis2 and the .NET languages reject the
	// zero-operation WSDLs; Axis1, CXF and JBossWS process them
	// silently; Zend and suds build method-less clients with warnings;
	// gSOAP fails only on the empty-types variant (Future).
	futureDoc := publishRaw(t, NewJBossWSServer(), typesys.JavaFuture)
	responseDoc := publishRaw(t, NewJBossWSServer(), typesys.JavaResponse)

	rejecting := []string{"Metro", "Apache Axis2", ".NET C#", ".NET Visual Basic", ".NET JScript"}
	for _, name := range rejecting {
		c := clientByName(t, name)
		if !runClient(c, futureDoc).genErr || !runClient(c, responseDoc).genErr {
			t.Errorf("%s must reject zero-operation documents", name)
		}
	}
	for _, name := range []string{"Apache Axis1", "Apache CXF", "JBossWS CXF"} {
		c := clientByName(t, name)
		for _, doc := range [][]byte{futureDoc, responseDoc} {
			o := runClient(c, doc)
			if o.genErr {
				t.Errorf("%s must process zero-operation documents silently", name)
			}
			if !o.compRan {
				t.Errorf("%s should still produce compilable artifacts", name)
			}
			if o.compErr {
				t.Errorf("%s empty stub must compile", name)
			}
		}
	}
	for _, name := range []string{"Zend Framework", "suds"} {
		c := clientByName(t, name)
		o := runClient(c, responseDoc)
		if o.genErr || !o.genWarn {
			t.Errorf("%s should warn about the method-less client, got %+v", name, o)
		}
	}
	gsoap := clientByName(t, "gSOAP")
	if !runClient(gsoap, futureDoc).genErr {
		t.Error("gSOAP must fail on the empty-types zero-operation variant")
	}
	if runClient(gsoap, responseDoc).genErr {
		t.Error("gSOAP must tolerate the typed zero-operation variant")
	}
}

func TestAxis1ThrowableCompileErrors(t *testing.T) {
	// §IV.B.3: Axis1 artifacts for Exception/Error services fail to
	// compile because of the misnamed wrapper attribute.
	throwable := typesys.JavaCatalog().WithHint(typesys.HintThrowable)[0]
	doc := publishRaw(t, NewMetroServer(), throwable.Name)
	axis1 := clientByName(t, "Apache Axis1")
	o := runClient(axis1, doc)
	if o.genErr {
		t.Fatal("Axis1 generation should succeed for throwables")
	}
	if !o.compErr {
		t.Error("Axis1 compilation must fail on throwable wrappers")
	}
	// The defect is specifically an unresolved member reference.
	gen := Generate(axis1, doc)
	found := false
	for _, d := range axis1.Verify(gen.Unit) {
		if d.Code == artifact.CodeUnresolvedRef {
			found = true
		}
	}
	if !found {
		t.Error("expected UNRESOLVED_MEMBER from the wrapper bug")
	}
	// Every other client compiles the same service cleanly.
	for _, c := range Clients() {
		if c.Name() == "Apache Axis1" {
			continue
		}
		if o := runClient(c, doc); o.compErr {
			t.Errorf("%s should compile throwable artifacts, got %+v", c.Name(), o)
		}
	}
}

func TestAxis2CaseCollisionCompileErrors(t *testing.T) {
	// §IV.B.3: Axis2's lower-cased locals collapse case-distinct
	// properties (XMLGregorianCalendar, SocketError, DataTable).
	axis2 := clientByName(t, "Apache Axis2")

	for _, tc := range []struct {
		server ServerFramework
		class  string
	}{
		{NewMetroServer(), typesys.JavaXMLGregorianCalendar},
		{NewJBossWSServer(), typesys.JavaXMLGregorianCalendar},
		{NewWCFServer(), typesys.CSharpSocketError},
		{NewWCFServer(), typesys.CSharpDataTable},
		{NewWCFServer(), typesys.CSharpDataTableCollection},
	} {
		doc := publishRaw(t, tc.server, tc.class)
		o := runClient(axis2, doc)
		if !o.compErr {
			t.Errorf("Axis2 × %s on %s: expected compile error", tc.class, tc.server.Name())
		}
	}
	// DataSet (wildcard, no case collision) compiles.
	doc := publishRaw(t, NewWCFServer(), typesys.CSharpDataSet)
	if o := runClient(axis2, doc); o.compErr {
		t.Error("Axis2 should compile DataSet artifacts")
	}
}

func TestVBEchoCollisionCompileErrors(t *testing.T) {
	vb := clientByName(t, ".NET Visual Basic")
	cs := clientByName(t, ".NET C#")

	javaDoc := publishRaw(t, NewMetroServer(), typesys.JavaVBCollisionClass)
	if !runClient(vb, javaDoc).compErr {
		t.Error("VB must fail on the Java echo-field class")
	}
	if runClient(cs, javaDoc).compErr {
		t.Error("C# must compile the same artifacts")
	}

	webControls := typesys.CSharpCatalog().WithHint(typesys.HintEchoField)
	if len(webControls) != typesys.CSharpEchoClasses {
		t.Fatalf("expected %d WebControls classes", typesys.CSharpEchoClasses)
	}
	for _, cls := range webControls {
		doc := publishRaw(t, NewWCFServer(), cls.Name)
		if !runClient(vb, doc).compErr {
			t.Errorf("VB must fail on %s", cls.Name)
		}
		if runClient(cs, doc).compErr {
			t.Errorf("C# must compile %s artifacts", cls.Name)
		}
	}
	// VB handles case collisions by renaming — SocketError compiles.
	doc := publishRaw(t, NewWCFServer(), typesys.CSharpSocketError)
	if runClient(vb, doc).compErr {
		t.Error("VB renames case collisions and must compile SocketError")
	}
}

func TestJScriptReservedWordCompileErrors(t *testing.T) {
	jscript := clientByName(t, ".NET JScript")
	reserved := typesys.JavaCatalog().WithHint(typesys.HintReservedWordField)[0]
	for _, server := range []ServerFramework{NewMetroServer(), NewJBossWSServer()} {
		doc := publishRaw(t, server, reserved.Name)
		o := runClient(jscript, doc)
		if o.genErr {
			t.Fatalf("JScript generation should succeed on %s", server.Name())
		}
		if !o.compErr {
			t.Errorf("JScript must fail compiling reserved-word artifacts from %s", server.Name())
		}
	}
	// Other clients handle the same service.
	doc := publishRaw(t, NewMetroServer(), reserved.Name)
	for _, c := range Clients() {
		if c.Name() == ".NET JScript" {
			continue
		}
		if o := runClient(c, doc); o.compErr {
			t.Errorf("%s should compile the reserved-word service", c.Name())
		}
	}
}

func TestJScriptCompilerCrash(t *testing.T) {
	jscript := clientByName(t, ".NET JScript")
	deep := typesys.CSharpCatalog().WithHint(typesys.HintDeepNesting)[0]
	doc := publishRaw(t, NewWCFServer(), deep.Name)
	gen := Generate(jscript, doc)
	if gen.Unit == nil {
		t.Fatal("generation should succeed; the crash is at compile time")
	}
	diags := jscript.Verify(gen.Unit)
	if len(diags) != 1 || diags[0].Code != artifact.CodeCompilerCrash {
		t.Fatalf("expected compiler crash, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "131 INTERNAL COMPILER CRASH") {
		t.Errorf("crash message %q lacks the paper's signature", diags[0].Message)
	}
	// The other .NET back-ends compile the same document.
	for _, name := range []string{".NET C#", ".NET Visual Basic"} {
		if o := runClient(clientByName(t, name), doc); o.compErr {
			t.Errorf("%s should compile the deeply nested artifacts", name)
		}
	}
}

func TestWCFSchemaRefNarrative(t *testing.T) {
	// §IV.B.2: the DataSet-style WSDLs break Metro, CXF and JBossWS;
	// gSOAP fails the nested subset; Axis1 the wildcard-paired subset;
	// suds the unbounded one. The .NET languages handle their own
	// format.
	cat := typesys.CSharpCatalog()
	wcf := NewWCFServer()

	plain := cat.WithHint(typesys.HintSchemaRefHard)
	var plainOnly *typesys.Class
	for _, c := range plain {
		if !c.Hints.Has(typesys.HintSchemaRefNested) && !c.Hints.Has(typesys.HintSchemaRefWithAny) &&
			!c.Hints.Has(typesys.HintSchemaRefUnbounded) && !c.Hints.Has(typesys.HintDoubleLang) &&
			!c.Hints.Has(typesys.HintNillableRef) && !c.Hints.Has(typesys.HintOptionalRef) {
			plainOnly = c
			break
		}
	}
	doc := publishRaw(t, wcf, plainOnly.Name)
	for _, name := range []string{"Metro", "Apache CXF", "JBossWS CXF"} {
		if !runClient(clientByName(t, name), doc).genErr {
			t.Errorf("%s must fail on the s:schema reference", name)
		}
	}
	for _, name := range []string{".NET C#", ".NET Visual Basic", ".NET JScript", "Apache Axis2", "gSOAP", "suds"} {
		if runClient(clientByName(t, name), doc).genErr {
			t.Errorf("%s should handle the plain s:schema reference", name)
		}
	}

	nested := cat.WithHint(typesys.HintSchemaRefNested)[0]
	if !runClient(clientByName(t, "gSOAP"), publishRaw(t, wcf, nested.Name)).genErr {
		t.Error("gSOAP must fail on the nested subset")
	}
	withAny := cat.WithHint(typesys.HintSchemaRefWithAny)[0]
	if !runClient(clientByName(t, "Apache Axis1"), publishRaw(t, wcf, withAny.Name)).genErr {
		t.Error("Axis1 must fail on the wildcard-paired subset")
	}
	unbounded := cat.WithHint(typesys.HintSchemaRefUnbounded)[0]
	if !runClient(clientByName(t, "suds"), publishRaw(t, wcf, unbounded.Name)).genErr {
		t.Error("suds must fail on the unbounded subset")
	}

	// Benign members of the family error nowhere.
	var benign *typesys.Class
	for i := range cat.Classes {
		c := &cat.Classes[i]
		if c.Hints.Has(typesys.HintLangAttr) && !c.Hints.Has(typesys.HintSchemaRefHard) {
			benign = c
			break
		}
	}
	benignDoc := publishRaw(t, wcf, benign.Name)
	for _, c := range Clients() {
		if o := runClient(c, benignDoc); o.genErr || o.compErr {
			t.Errorf("%s errored on a benign WS-I-failing service", c.Name())
		}
	}
}

func TestDotNetDoubleLangWarning(t *testing.T) {
	cls := typesys.CSharpCatalog().WithHint(typesys.HintDoubleLang)[0]
	doc := publishRaw(t, NewWCFServer(), cls.Name)
	for _, name := range []string{".NET C#", ".NET Visual Basic", ".NET JScript"} {
		o := runClient(clientByName(t, name), doc)
		if !o.genWarn || o.genErr {
			t.Errorf("%s should warn (only) on the duplicated xml:lang, got %+v", name, o)
		}
	}
}

func TestGenerateRejectsGarbageInput(t *testing.T) {
	for _, c := range Clients() {
		res := Generate(c, []byte("not a wsdl"))
		if !res.Failed() {
			t.Errorf("%s accepted garbage input", c.Name())
		}
		if res.Unit != nil {
			t.Errorf("%s produced artifacts from garbage", c.Name())
		}
	}
}

func TestGenerationResultFailed(t *testing.T) {
	ok := GenerationResult{Issues: []Issue{warn("W", "warning only")}}
	if ok.Failed() {
		t.Error("warnings alone must not mark a result failed")
	}
	bad := GenerationResult{Issues: []Issue{errIssue("E", "boom")}}
	if !bad.Failed() {
		t.Error("error issues must mark the result failed")
	}
}

func TestIssueString(t *testing.T) {
	i := errIssue(CodeSchemaRef, "cannot bind %s", "thing")
	s := i.String()
	for _, want := range []string{"error", CodeSchemaRef, "cannot bind thing"} {
		if !strings.Contains(s, want) {
			t.Errorf("issue string %q missing %q", s, want)
		}
	}
}

func TestArtifactLanguages(t *testing.T) {
	want := map[string]artifact.TargetLanguage{
		"Metro":             artifact.LangJava,
		"Apache Axis1":      artifact.LangJava,
		"Apache Axis2":      artifact.LangJava,
		"Apache CXF":        artifact.LangJava,
		"JBossWS CXF":       artifact.LangJava,
		".NET C#":           artifact.LangCSharp,
		".NET Visual Basic": artifact.LangVB,
		".NET JScript":      artifact.LangJScript,
		"gSOAP":             artifact.LangCPP,
		"Zend Framework":    artifact.LangPHP,
		"suds":              artifact.LangPython,
	}
	for _, c := range Clients() {
		if got := c.ArtifactLanguage(); got != want[c.Name()] {
			t.Errorf("%s artifact language = %v, want %v", c.Name(), got, want[c.Name()])
		}
	}
}

// TestBindingCustomizationRemediation reproduces §IV.B.2's remediation
// claim: the Metro/CXF/JBossWS generation errors on the WCF DataSet
// family "can be solved by using manual customization of the data
// type bindings". With the customization applied, all 79 errors per
// client disappear and the resulting artifacts compile.
func TestBindingCustomizationRemediation(t *testing.T) {
	cat := typesys.CSharpCatalog()
	wcf := NewWCFServer()

	hard := cat.WithHint(typesys.HintSchemaRefHard)[0]
	wildcard, _ := cat.Lookup(typesys.CSharpDataSet)

	for _, mk := range []func(...ClientOption) ClientFramework{
		NewMetroClient, NewCXFClient, NewJBossWSClient,
	} {
		plain := mk()
		fixed := mk(WithBindingCustomization())
		for _, cls := range []*typesys.Class{hard, wildcard} {
			doc := publishRaw(t, wcf, cls.Name)
			if !runClient(plain, doc).genErr {
				t.Errorf("%s should fail on %s without customization", plain.Name(), cls.Name)
			}
			o := runClient(fixed, doc)
			if o.genErr {
				t.Errorf("%s should succeed on %s with binding customization", fixed.Name(), cls.Name)
			}
			if !o.compRan || o.compErr {
				t.Errorf("%s customized artifacts for %s should compile: %+v", fixed.Name(), cls.Name, o)
			}
		}
		// The customization does not paper over unrelated defects: the
		// dangling WS-Addressing reference still fails.
		w3c := publishRaw(t, NewMetroServer(), typesys.JavaW3CEndpointReference)
		if !runClient(fixed, w3c).genErr {
			t.Errorf("%s: customization must not mask the addressing defect", fixed.Name())
		}
	}
}
