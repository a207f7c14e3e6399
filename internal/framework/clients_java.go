package framework

import (
	"wsinterop/internal/artifact"
)

// This file implements the five Java client-side subsystems. Their
// common trunk is javaClient; the behavioural differences observed in
// the study are expressed as per-tool policies:
//
//   - Metro's wsimport fails cleanly on unresolvable references,
//     wildcard-only content models and zero-operation documents.
//   - Apache CXF's and JBossWS's wsdl2java/wsconsume fail on
//     unresolvable references and wildcard-only models but process
//     zero-operation documents *silently*, producing stubs with no
//     methods (the silent-failure finding of §IV.A).
//   - Axis1's wsdl2java reports errors yet still writes artifacts
//     (which then javac compiles with "unchecked" warnings), and its
//     fault-wrapper accessor references a misnamed member.
//   - Axis2's wsdl2java lower-cases deserializer locals, collapsing
//     case-distinct elements into duplicate variables.

// javaToolPolicy captures how one Java tool reacts to document
// features.
type javaToolPolicy struct {
	name string
	tool string
	// foreignRefNeedsMissingImport restricts the error every Java tool
	// raises on unresolvable non-XSD element references to documents
	// that do not even declare an import for the namespace (the Metro
	// emission variant) — Axis2's observed asymmetry.
	foreignRefNeedsMissingImport bool
	// errOnSchemaRef fires on xs:schema element references (the WCF
	// DataSet construct).
	errOnSchemaRef bool
	// schemaRefNeedsWildcard restricts the above to references paired
	// with a wildcard in the same sequence — Axis1's observed subset.
	schemaRefNeedsWildcard bool
	// errOnWildcardOnly fires on wildcard-only content models.
	errOnWildcardOnly bool
	// errOnZeroOps fires on documents without operations; tools
	// without it process such documents silently.
	errOnZeroOps bool
	// silentArtifacts keeps generating artifacts even after reporting
	// errors (Axis1/Axis2).
	silentArtifacts bool
	// builder is the tool's code-generation style.
	builder unitBuilder
}

type javaClient struct {
	policy javaToolPolicy
}

var _ ClientFramework = (*javaClient)(nil)

// ClientOption customizes a client framework model.
type ClientOption func(*javaToolPolicy)

// WithBindingCustomization applies the manual data-type binding
// customization of the paper's §IV.B.2 remediation (reference [29]):
// the developer supplies JAXB bindings that map the xs:schema
// reference and wildcard content models to generic types, so the
// JAX-WS-family tools no longer fail on the WCF DataSet WSDLs. The
// paper notes the fix works but "the client developer has to know
// precisely which binding to define".
func WithBindingCustomization() ClientOption {
	return func(p *javaToolPolicy) {
		p.errOnSchemaRef = false
		p.errOnWildcardOnly = false
	}
}

func applyClientOptions(p javaToolPolicy, opts []ClientOption) javaToolPolicy {
	for _, apply := range opts {
		apply(&p)
	}
	return p
}

// NewMetroClient creates the Oracle Metro 2.3 wsimport model.
func NewMetroClient(opts ...ClientOption) ClientFramework {
	return &javaClient{policy: applyClientOptions(javaToolPolicy{
		name:              "Metro",
		tool:              "wsimport",
		errOnSchemaRef:    true,
		errOnWildcardOnly: true,
		errOnZeroOps:      true,
		builder:           unitBuilder{lang: artifact.LangJava, stemSfx: "Port"},
	}, opts)}
}

// NewCXFClient creates the Apache CXF 2.7.6 wsdl2java model.
func NewCXFClient(opts ...ClientOption) ClientFramework {
	return &javaClient{policy: applyClientOptions(javaToolPolicy{
		name:              "Apache CXF",
		tool:              "wsdl2java",
		errOnSchemaRef:    true,
		errOnWildcardOnly: true,
		builder:           unitBuilder{lang: artifact.LangJava, stemSfx: "Client"},
	}, opts)}
}

// NewJBossWSClient creates the JBossWS CXF 4.2.3 wsconsume model.
func NewJBossWSClient(opts ...ClientOption) ClientFramework {
	return &javaClient{policy: applyClientOptions(javaToolPolicy{
		name:              "JBossWS CXF",
		tool:              "wsconsume",
		errOnSchemaRef:    true,
		errOnWildcardOnly: true,
		builder:           unitBuilder{lang: artifact.LangJava, stemSfx: "Service"},
	}, opts)}
}

// NewAxis1Client creates the Apache Axis1 1.4 wsdl2java model.
func NewAxis1Client() ClientFramework {
	return &javaClient{policy: javaToolPolicy{
		name:                   "Apache Axis1",
		tool:                   "wsdl2java",
		errOnSchemaRef:         true,
		schemaRefNeedsWildcard: true,
		silentArtifacts:        true,
		builder: unitBuilder{
			lang:                artifact.LangJava,
			stemSfx:             "SoapBindingStub",
			rawCollections:      true,
			throwableWrapperBug: true,
		},
	}}
}

// NewAxis2Client creates the Apache Axis2 1.6.2 wsdl2java model.
func NewAxis2Client() ClientFramework {
	return &javaClient{policy: javaToolPolicy{
		name:                         "Apache Axis2",
		tool:                         "wsdl2java",
		foreignRefNeedsMissingImport: true,
		errOnZeroOps:                 true,
		silentArtifacts:              true,
		builder: unitBuilder{
			lang:           artifact.LangJava,
			stemSfx:        "Stub",
			rawCollections: true,
			lowerLocals:    true,
		},
	}}
}

// Name implements ClientFramework.
func (c *javaClient) Name() string { return c.policy.name }

// Tool implements ClientFramework.
func (c *javaClient) Tool() string { return c.policy.tool }

// ArtifactLanguage implements ClientFramework.
func (c *javaClient) ArtifactLanguage() artifact.TargetLanguage { return artifact.LangJava }

// GenerateAnalyzed implements ClientFramework.
func (c *javaClient) GenerateAnalyzed(a *Analysis) GenerationResult {
	return c.generate(a.features)
}

func (c *javaClient) generate(f *docFeatures) GenerationResult {
	p := &c.policy

	var issues []Issue
	if len(f.foreignRefs) > 0 {
		if !p.foreignRefNeedsMissingImport || !f.importWithoutLocation {
			issues = append(issues, errIssue(CodeUnresolvableRef,
				"undefined element declaration %s", f.foreignRefs[0]))
		}
	}
	if p.errOnSchemaRef && len(f.schemaRefs) > 0 {
		if !p.schemaRefNeedsWildcard || f.schemaRefWithAny {
			issues = append(issues, errIssue(CodeSchemaRef,
				"unable to process reference %s: s:schema is not a known element", f.schemaRefs[0]))
		}
	}
	if p.errOnWildcardOnly && f.wildcardOnly {
		issues = append(issues, errIssue(CodeWildcard,
			"cannot bind wildcard-only content model (s:any)"))
	}
	if p.errOnZeroOps && f.zeroOperations {
		issues = append(issues, errIssue(CodeNoOperations,
			"service description declares no operations"))
	}

	hasError := false
	for _, i := range issues {
		if i.Severity >= artifact.SeverityError {
			hasError = true
			break
		}
	}
	if hasError && !p.silentArtifacts {
		return GenerationResult{Issues: issues}
	}

	b := p.builder
	b.unitName = unitNameFor(f)
	return GenerationResult{Unit: b.build(f), Issues: issues}
}

// Verify implements ClientFramework: Java artifacts are compiled with
// javac semantics.
var javaCompiler = artifact.NewCompiler(artifact.LangJava)

func (c *javaClient) Verify(u *artifact.Unit) []artifact.Diagnostic {
	return javaCompiler.Compile(u)
}

// unitNameFor derives the artifact unit name from the document.
func unitNameFor(f *docFeatures) string {
	if f.def.Name != "" {
		return f.def.Name
	}
	for _, svc := range f.def.Services {
		if svc.Name != "" {
			return svc.Name
		}
	}
	return "Service"
}
