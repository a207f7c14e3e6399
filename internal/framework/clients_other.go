package framework

import (
	"wsinterop/internal/artifact"
)

// This file implements the remaining three client subsystems: gSOAP
// (C++), Zend Framework (PHP) and suds (Python).

// ---------------------------------------------------------------
// gSOAP 2.8.16 — wsdl2h + soapcpp2
// ---------------------------------------------------------------

// gsoapClient models the two-stage gSOAP toolchain. The study found
// the two tools inconsistent with each other: wsdl2h accepts
// constructs that soapcpp2 then rejects. The modelled failure set is
// structural: the "jaxb-format" vendor facet variant, descriptions
// with no operations *and* an empty types section, and xs:schema
// references nested inside inline types. Everything the toolchain
// does emit compiles cleanly — the paper highlights that gSOAP
// artifacts never fail compilation.
type gsoapClient struct{}

var _ ClientFramework = (*gsoapClient)(nil)

// NewGSOAPClient creates the gSOAP toolchain model.
func NewGSOAPClient() ClientFramework { return &gsoapClient{} }

// Name implements ClientFramework.
func (c *gsoapClient) Name() string { return "gSOAP" }

// Tool implements ClientFramework.
func (c *gsoapClient) Tool() string { return "wsdl2h + soapcpp2" }

// ArtifactLanguage implements ClientFramework.
func (c *gsoapClient) ArtifactLanguage() artifact.TargetLanguage { return artifact.LangCPP }

// GenerateAnalyzed implements ClientFramework.
func (c *gsoapClient) GenerateAnalyzed(a *Analysis) GenerationResult {
	return c.generate(a.features)
}

func (c *gsoapClient) generate(f *docFeatures) GenerationResult {
	var issues []Issue
	if f.vendorFacet == "jaxb-format" {
		// wsdl2h maps the facet to a typedef that soapcpp2 rejects.
		issues = append(issues, errIssue(CodeToolInconsistent,
			"soapcpp2 rejects typedef emitted by wsdl2h for facet %q", f.vendorFacet))
	}
	if f.zeroOperations && f.emptyTypes {
		issues = append(issues, errIssue(CodeNoOperations,
			"wsdl2h produced an empty header: no operations and no types"))
	}
	if f.schemaRefNested {
		issues = append(issues, errIssue(CodeSchemaRef,
			"wsdl2h cannot resolve xs:schema reference inside an inline type"))
	}
	if len(issues) > 0 {
		return GenerationResult{Issues: issues}
	}
	b := unitBuilder{lang: artifact.LangCPP, stemSfx: "SoapProxy", unitName: unitNameFor(f)}
	return GenerationResult{Unit: b.build(f)}
}

// Verify implements ClientFramework: g++ semantics, case-sensitive.
var cppCompiler = artifact.NewCompiler(artifact.LangCPP)

func (c *gsoapClient) Verify(u *artifact.Unit) []artifact.Diagnostic {
	return cppCompiler.Compile(u)
}

// ---------------------------------------------------------------
// Zend Framework 1.9 — Zend_Soap_Client (PHP)
// ---------------------------------------------------------------

// zendClient models the PHP dynamic client. It never fails outright:
// problematic constructs surface as notices during client
// construction. The notice set is structural: zero-operation
// documents (a client object without methods), imports without
// schemaLocation together with dangling references or vendor facets
// (the CXF emission variants), and nillable xs:schema references.
// Dangling references in documents without any import are absorbed
// into an "uncommon data structure" in the generated client — the
// paper notes this silent behaviour for the GlassFish services.
type zendClient struct{}

var _ ClientFramework = (*zendClient)(nil)

// NewZendClient creates the Zend_Soap_Client model.
func NewZendClient() ClientFramework { return &zendClient{} }

// Name implements ClientFramework.
func (c *zendClient) Name() string { return "Zend Framework" }

// Tool implements ClientFramework.
func (c *zendClient) Tool() string { return "Zend_Soap_Client" }

// ArtifactLanguage implements ClientFramework.
func (c *zendClient) ArtifactLanguage() artifact.TargetLanguage { return artifact.LangPHP }

// GenerateAnalyzed implements ClientFramework.
func (c *zendClient) GenerateAnalyzed(a *Analysis) GenerationResult {
	return c.generate(a.features)
}

func (c *zendClient) generate(f *docFeatures) GenerationResult {
	var issues []Issue
	if f.zeroOperations {
		issues = append(issues, warn(CodeNoMethods,
			"client object generated without invocable methods"))
	}
	if f.importWithoutLocation && len(f.foreignRefs) > 0 {
		issues = append(issues, warn(CodeUnresolvableRef,
			"schema import without location leaves %s unresolved", f.foreignRefs[0]))
	}
	if f.importWithoutLocation && f.vendorFacet != "" {
		issues = append(issues, warn(CodeVendorFacet,
			"unknown facet %q mapped to string", f.vendorFacet))
	}
	if f.vendorFacet == "cxf-format" && !f.importWithoutLocation {
		issues = append(issues, warn(CodeVendorFacet,
			"unknown facet %q mapped to string", f.vendorFacet))
	}
	if f.schemaRefNillable {
		issues = append(issues, warn(CodeOddStructure,
			"nillable xs:schema reference mapped to an untyped member"))
	}
	b := unitBuilder{lang: artifact.LangPHP, stemSfx: "SoapClient", unitName: unitNameFor(f)}
	return GenerationResult{Unit: b.build(f), Issues: issues}
}

// Verify implements ClientFramework: dynamic instantiation check.
func (c *zendClient) Verify(u *artifact.Unit) []artifact.Diagnostic {
	return artifact.Instantiate(u)
}

// ---------------------------------------------------------------
// suds 0.4 — Python
// ---------------------------------------------------------------

// sudsClient models the Python dynamic client. It fails on dangling
// references when the document declares no import for the namespace
// (the Metro and WCF emission variants) and on unbounded xs:schema
// references; it warns on zero-operation documents, on the
// "cxf-format" vendor facet, and on optional xs:schema references.
type sudsClient struct{}

var _ ClientFramework = (*sudsClient)(nil)

// NewSudsClient creates the suds model.
func NewSudsClient() ClientFramework { return &sudsClient{} }

// Name implements ClientFramework.
func (c *sudsClient) Name() string { return "suds" }

// Tool implements ClientFramework.
func (c *sudsClient) Tool() string { return "suds Python client" }

// ArtifactLanguage implements ClientFramework.
func (c *sudsClient) ArtifactLanguage() artifact.TargetLanguage { return artifact.LangPython }

// GenerateAnalyzed implements ClientFramework.
func (c *sudsClient) GenerateAnalyzed(a *Analysis) GenerationResult {
	return c.generate(a.features)
}

func (c *sudsClient) generate(f *docFeatures) GenerationResult {
	var issues []Issue
	if len(f.foreignRefs) > 0 && !f.importWithoutLocation {
		issues = append(issues, errIssue(CodeUnresolvableRef,
			"suds.TypeNotFound: %s", f.foreignRefs[0]))
	}
	if f.schemaRefUnbounded {
		issues = append(issues, errIssue(CodeSchemaRef,
			"suds.TypeNotFound: unbounded reference to xs:schema"))
	}
	if f.zeroOperations {
		issues = append(issues, warn(CodeNoMethods,
			"client object generated without invocable methods"))
	}
	if f.vendorFacet == "cxf-format" {
		issues = append(issues, warn(CodeVendorFacet,
			"unknown facet %q ignored", f.vendorFacet))
	}
	if f.schemaRefOptional {
		issues = append(issues, warn(CodeOddStructure,
			"optional xs:schema reference mapped to an untyped member"))
	}
	for _, i := range issues {
		if i.Severity >= artifact.SeverityError {
			return GenerationResult{Issues: issues}
		}
	}
	b := unitBuilder{lang: artifact.LangPython, stemSfx: "Client", unitName: unitNameFor(f)}
	return GenerationResult{Unit: b.build(f), Issues: issues}
}

// Verify implements ClientFramework: dynamic instantiation check.
func (c *sudsClient) Verify(u *artifact.Unit) []artifact.Diagnostic {
	return artifact.Instantiate(u)
}
