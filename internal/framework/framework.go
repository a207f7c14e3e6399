// Package framework implements behavioural models of the web service
// framework subsystems of the study: three server-side WSDL emitters
// (Oracle Metro 2.3, JBossWS CXF 4.2.3, WCF .NET 4.0) and eleven
// client-side artifact generators (Metro, Axis1 1.4, Axis2 1.6.2,
// Apache CXF 2.7.6, JBossWS, .NET wsdl.exe for C# / Visual Basic /
// JScript, gSOAP 2.8.16, Zend_Soap_Client and suds 0.4).
//
// Server models map native classes (internal/typesys) to WSDL 1.1
// documents with each framework's documented emission quirks. Client
// models consume serialized WSDL — they re-parse the XML exactly as
// the real tools do — and generate artifact code models
// (internal/artifact) whose defects, where the modelled tool had a
// code-generation bug, are then caught mechanically by the artifact
// compiler. Behaviour therefore follows from document structure;
// no model consults the identity of the peer framework.
package framework

import (
	"errors"
	"fmt"
	"strings"

	"wsinterop/internal/artifact"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/xsd"
)

// Issue is one tool-reported finding during service description
// generation or client artifact generation.
type Issue struct {
	Severity artifact.Severity
	// Code is a stable machine-readable identifier.
	Code string
	// Message is the tool's output line.
	Message string
}

// String renders the issue in tool-output style.
func (i Issue) String() string {
	return fmt.Sprintf("%s [%s]: %s", i.Severity, i.Code, i.Message)
}

// Issue codes reported by the framework models.
const (
	CodeNotDeployable    = "NOT_DEPLOYABLE"
	CodeDeployRefused    = "DEPLOY_REFUSED"
	CodeUnresolvableRef  = "UNRESOLVABLE_REF"
	CodeSchemaRef        = "SCHEMA_REF_UNSUPPORTED"
	CodeWildcard         = "WILDCARD_UNSUPPORTED"
	CodeVendorFacet      = "VENDOR_FACET"
	CodeNoOperations     = "NO_OPERATIONS"
	CodeToolInconsistent = "TOOL_INCONSISTENT"
	CodeEmptySoapAction  = "EMPTY_SOAP_ACTION"
	CodeDuplicateAttr    = "DUPLICATE_ATTRIBUTE"
	CodeOddStructure     = "ODD_STRUCTURE"
	CodeNoMethods        = "NO_METHODS"
	CodeParseFailure     = "PARSE_FAILURE"
)

// NotDeployableError reports that a server framework cannot map a
// class to a service interface, so no WSDL is published. The study's
// service-description step filtered 14 785 of 22 024 services this
// way.
type NotDeployableError struct {
	Framework string
	Class     string
	Reason    string
}

// Error implements the error interface.
func (e *NotDeployableError) Error() string {
	return fmt.Sprintf("%s: class %s not deployable: %s", e.Framework, e.Class, e.Reason)
}

// ErrRefused marks the deliberate deployment refusal (Metro refusing
// the async-handle classes), as opposed to an inability to bind.
var ErrRefused = errors.New("deployment refused by server")

// ServerFramework is a server-side framework subsystem: it publishes
// WSDL service descriptions for test services.
type ServerFramework interface {
	// Name is the framework's display name (e.g. "Metro").
	Name() string
	// Server is the hosting application server's display name.
	Server() string
	// Language is the service implementation language it hosts.
	Language() typesys.Language
	// Publish generates the service description for a test service.
	// It returns a *NotDeployableError when the parameter class
	// cannot be bound (or deployment is refused).
	Publish(def services.Definition) (*wsdl.Definitions, error)
}

// GenerationResult is the outcome of running a client artifact
// generation tool against one WSDL document.
type GenerationResult struct {
	// Unit is the generated artifact set; nil when the tool failed
	// without producing usable output. Tools that fail "silently"
	// (Axis1, Axis2) report error issues and still return a unit.
	Unit *artifact.Unit
	// Issues is the tool's reported output.
	Issues []Issue
}

// Failed reports whether generation produced an error-severity issue.
func (r GenerationResult) Failed() bool {
	for _, i := range r.Issues {
		if i.Severity >= artifact.SeverityError {
			return true
		}
	}
	return false
}

// ClientFramework is a client-side framework subsystem: it generates
// and verifies invocation artifacts from WSDL documents.
type ClientFramework interface {
	// Name is the framework's display name.
	Name() string
	// Tool is the bundled artifact generation tool (e.g. "wsimport").
	Tool() string
	// ArtifactLanguage is the language of generated artifacts.
	ArtifactLanguage() artifact.TargetLanguage
	// GenerateAnalyzed runs the artifact generation tool on an analyzed
	// document. Generate is the entry point for serialized WSDL; the
	// campaign shares one Analysis of a document across every client.
	GenerateAnalyzed(a *Analysis) GenerationResult
	// Verify performs the third step for this framework's artifacts:
	// compilation for compiled languages, dynamic instantiation
	// otherwise.
	Verify(u *artifact.Unit) []artifact.Diagnostic
}

// Generate runs client c's artifact generation tool on a serialized
// WSDL document. The tools consume the XML, re-parsing it; handing over
// in-memory models would hide parser-level interoperability issues. All
// behavioural quirks key on the analysis, so GenerateAnalyzed over a
// shared Analysis hides no parser-level issue as long as that analysis
// came from Analyze on exactly these bytes. A document that does not
// parse yields the PARSE_FAILURE error every tool reports.
func Generate(c ClientFramework, doc []byte) GenerationResult {
	a, err := Analyze(doc)
	if err != nil {
		return parseFailure(err)
	}
	return c.GenerateAnalyzed(a)
}

// Analysis is an immutable parsed-and-analyzed view of one serialized
// WSDL document. After Analyze returns, every field is only ever read,
// so a single Analysis may be shared by many client frameworks across
// goroutines — the memoization contract behind the campaign runner's
// analysis cache.
type Analysis struct {
	features *docFeatures
}

// Definitions exposes the parsed document behind the analysis, so the
// transport layer can derive endpoints from the same single parse the
// clients share. Callers must treat it as read-only.
func (a *Analysis) Definitions() *wsdl.Definitions { return a.features.def }

// Analyze parses and inspects a serialized WSDL document once, for use
// with ClientFramework.GenerateAnalyzed. It fails exactly when the
// clients' own re-parse of the same bytes would fail.
func Analyze(doc []byte) (*Analysis, error) {
	f, err := analyze(doc)
	if err != nil {
		return nil, err
	}
	return &Analysis{features: f}, nil
}

// AnalyzeDoc inspects an already-parsed (or freshly published)
// document, skipping the serialize→re-parse round trip of Analyze.
// The caller must guarantee the document is what a client would see —
// the campaign's shape memo uses it on documents whose serialized
// form has been verified byte-for-byte against the per-class marshal
// (DESIGN.md §6.6) — and must not mutate the document afterwards.
func AnalyzeDoc(def *wsdl.Definitions) *Analysis {
	return &Analysis{features: analyzeDef(def)}
}

// Servers returns the three server-side subsystems of the study, in
// the paper's order, emitting document/literal descriptions.
func Servers() []ServerFramework {
	return ServersWithOptions()
}

// ServersWithOptions returns the three server-side subsystems with
// shared emitter options (e.g. WithBindingStyle(wsdl.StyleRPC)).
func ServersWithOptions(opts ...ServerOption) []ServerFramework {
	return []ServerFramework{
		NewMetroServer(opts...),
		NewJBossWSServer(opts...),
		NewWCFServer(opts...),
	}
}

// Clients returns the eleven client-side subsystems of the study, in
// the paper's order.
func Clients() []ClientFramework {
	return []ClientFramework{
		NewMetroClient(),
		NewAxis1Client(),
		NewAxis2Client(),
		NewCXFClient(),
		NewJBossWSClient(),
		NewDotNetClient(artifact.LangCSharp),
		NewDotNetClient(artifact.LangVB),
		NewDotNetClient(artifact.LangJScript),
		NewGSOAPClient(),
		NewZendClient(),
		NewSudsClient(),
	}
}

// ---------------------------------------------------------------
// Document feature analysis shared by the client models.
// ---------------------------------------------------------------

// emitterStyle is the convention family a WSDL document follows,
// detected from the document alone.
type emitterStyle int

const (
	// styleJava marks JAX-WS-convention documents: empty soapAction
	// values (the detail the JScript tool warns about on every run).
	styleJava emitterStyle = iota + 1
	// styleDotNet marks .NET-convention documents: tempuri-rooted
	// soapAction URIs.
	styleDotNet
)

// docFeatures is everything a client generator observes about a WSDL.
type docFeatures struct {
	def   *wsdl.Definitions
	style emitterStyle

	zeroOperations bool
	emptyTypes     bool

	// foreignRefs are unresolved element references into non-XSD
	// namespaces (the WS-Addressing reference of the
	// W3CEndpointReference services).
	foreignRefs []xsd.QName
	// schemaRefs are element references into the XML Schema namespace
	// itself (the WCF DataSet "s:schema" construct).
	schemaRefs []xsd.QName
	// importWithoutLocation distinguishes the JBossWS emission variant
	// (import declared but location omitted) from Metro's (no import).
	importWithoutLocation bool

	schemaRefNested    bool
	schemaRefWithAny   bool
	schemaRefUnbounded bool
	schemaRefNillable  bool
	schemaRefOptional  bool

	// vendorFacet is the non-standard facet name in use, if any.
	vendorFacet string
	// langAttrRefs counts xml:lang attribute references.
	langAttrRefs int
	// wildcardOnly reports a complex type whose content is a bare
	// wildcard.
	wildcardOnly bool

	// throwableTypes lists complex types with the message+cause shape.
	throwableTypes []string
	// caseCollidingTypes lists complex types owning two elements whose
	// names differ only by case.
	caseCollidingTypes []string
	// maxNesting is the deepest inline type nesting in the schema.
	maxNesting int
}

// analyze parses and inspects a serialized WSDL document.
func analyze(doc []byte) (*docFeatures, error) {
	def, err := wsdl.Unmarshal(doc)
	if err != nil {
		return nil, err
	}
	return analyzeDef(def), nil
}

// analyzeDef inspects a parsed document.
func analyzeDef(def *wsdl.Definitions) *docFeatures {
	f := &docFeatures{def: def}

	f.style = styleJava
	for _, b := range def.Bindings {
		for _, op := range b.Operations {
			if op.SOAPAction != "" {
				f.style = styleDotNet
			}
		}
	}

	f.zeroOperations = def.OperationCount() == 0
	f.emptyTypes = def.Types == nil || len(def.Types.Schemas) == 0
	if !f.emptyTypes {
		empty := true
		for _, sch := range def.Types.Schemas {
			if len(sch.Elements)+len(sch.ComplexTypes)+len(sch.SimpleTypes) > 0 {
				empty = false
				break
			}
		}
		f.emptyTypes = empty
	}

	if def.Types != nil {
		if unresolved, rerr := def.Types.Resolve(); rerr == nil {
			for _, u := range unresolved {
				if u.Kind != "element" {
					continue
				}
				if u.Ref.Space == xsd.NamespaceXSD {
					f.schemaRefs = append(f.schemaRefs, u.Ref)
				} else {
					f.foreignRefs = append(f.foreignRefs, u.Ref)
				}
			}
		}
		for _, sch := range def.Types.Schemas {
			for _, imp := range sch.Imports {
				if imp.SchemaLocation == "" {
					f.importWithoutLocation = true
				}
			}
			for _, st := range sch.SimpleTypes {
				for _, facet := range st.Facets {
					if !xsd.IsStandardFacet(facet.Name) {
						f.vendorFacet = facet.Name
					}
				}
			}
			inspectSchemaStructure(sch, f)
		}
	}
	return f
}

// inspectSchemaStructure walks one schema block collecting the
// structural markers the client quirk behaviours key on.
func inspectSchemaStructure(sch *xsd.Schema, f *docFeatures) {
	var walkCT func(ct *xsd.ComplexType, depth int, nested bool)
	walkCT = func(ct *xsd.ComplexType, depth int, nested bool) {
		if depth > f.maxNesting {
			f.maxNesting = depth
		}
		if len(ct.Sequence) == 0 && len(ct.Any) > 0 {
			f.wildcardOnly = true
		}
		hasSchemaRef := false
		lower := make(map[string]string, len(ct.Sequence))
		var hasMessage, hasCause bool
		for i := range ct.Sequence {
			el := &ct.Sequence[i]
			if el.Name == "message" {
				hasMessage = true
			}
			if el.Name == "cause" {
				hasCause = true
			}
			if el.Name != "" {
				key := strings.ToLower(el.Name)
				if prev, ok := lower[key]; ok && prev != el.Name {
					f.caseCollidingTypes = append(f.caseCollidingTypes, ct.Name)
				}
				lower[key] = el.Name
			}
			if el.Ref.Space == xsd.NamespaceXSD {
				hasSchemaRef = true
				if nested {
					f.schemaRefNested = true
				}
				if el.Occurs.Max < 0 {
					f.schemaRefUnbounded = true
				}
				if el.Occurs.Min == 0 && el.Occurs.Max >= 0 {
					f.schemaRefOptional = true
				}
				if el.Nillable {
					f.schemaRefNillable = true
				}
			}
			if el.Inline != nil {
				walkCT(el.Inline, depth+1, true)
			}
		}
		if hasSchemaRef && len(ct.Any) > 0 {
			f.schemaRefWithAny = true
		}
		if hasMessage && hasCause && ct.Name != "" {
			f.throwableTypes = append(f.throwableTypes, ct.Name)
		}
		for _, at := range ct.Attributes {
			if at.Ref.Space == xsd.NamespaceXML && at.Ref.Local == "lang" {
				f.langAttrRefs++
			}
		}
	}
	for i := range sch.ComplexTypes {
		walkCT(&sch.ComplexTypes[i], 1, false)
	}
	for i := range sch.Elements {
		if sch.Elements[i].Inline != nil {
			walkCT(sch.Elements[i].Inline, 1, false)
		}
	}
}

func warn(code, format string, args ...any) Issue {
	return Issue{Severity: artifact.SeverityWarning, Code: code, Message: fmt.Sprintf(format, args...)}
}

func errIssue(code, format string, args ...any) Issue {
	return Issue{Severity: artifact.SeverityError, Code: code, Message: fmt.Sprintf(format, args...)}
}

func parseFailure(err error) GenerationResult {
	return GenerationResult{Issues: []Issue{errIssue(CodeParseFailure, "cannot parse service description: %v", err)}}
}
