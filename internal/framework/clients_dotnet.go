package framework

import (
	"fmt"

	"wsinterop/internal/artifact"
)

// This file implements the three .NET language clients, all driven by
// the wsdl.exe artifact generator model. The generator behaves
// identically across languages at the generation step — it fails on
// unresolvable references, vendor facets and zero-operation documents,
// and warns on duplicated foreign attributes — while the language
// back-ends differ:
//
//   - C#: clean code generation, case-sensitive compilation.
//   - Visual Basic: the back-end flattens wrapper parameters, naming
//     the proxy method's parameter after the first bean property; a
//     property named like the operation then collides with the method
//     name in VB's case-insensitive member space (4 WCF + 2 Java-side
//     compile errors in the study).
//   - JScript: the tool warns on every empty-soapAction (Java
//     convention) document; the back-end emits accessor functions and
//     call sites but skips definitions for reserved-word properties
//     (50-class compile-error families per Java server), and the jsc
//     compiler crashes on deeply nested types with the study's
//     infamous "131 INTERNAL COMPILER CRASH" (301 services).

type dotNetClient struct {
	lang artifact.TargetLanguage
	// compiler is the language back-end; a Compiler is read-only
	// after construction, so one instance serves every Verify call.
	compiler *artifact.Compiler
}

var _ ClientFramework = (*dotNetClient)(nil)

// jscriptMaxNesting is the modelled type-nesting capacity of the
// JScript compiler.
const jscriptMaxNesting = 3

// NewDotNetClient creates the wsdl.exe model for one of the three
// .NET languages (artifact.LangCSharp, LangVB, LangJScript).
func NewDotNetClient(lang artifact.TargetLanguage) ClientFramework {
	switch lang {
	case artifact.LangCSharp, artifact.LangVB, artifact.LangJScript:
		var opts []artifact.Option
		if lang == artifact.LangJScript {
			opts = append(opts, artifact.WithMaxNesting(jscriptMaxNesting))
		}
		return &dotNetClient{lang: lang, compiler: artifact.NewCompiler(lang, opts...)}
	default:
		panic(fmt.Sprintf("framework: %v is not a .NET artifact language", lang))
	}
}

// Name implements ClientFramework.
func (c *dotNetClient) Name() string {
	switch c.lang {
	case artifact.LangVB:
		return ".NET Visual Basic"
	case artifact.LangJScript:
		return ".NET JScript"
	default:
		return ".NET C#"
	}
}

// Tool implements ClientFramework.
func (c *dotNetClient) Tool() string { return "wsdl.exe" }

// ArtifactLanguage implements ClientFramework.
func (c *dotNetClient) ArtifactLanguage() artifact.TargetLanguage { return c.lang }

// GenerateAnalyzed implements ClientFramework.
func (c *dotNetClient) GenerateAnalyzed(a *Analysis) GenerationResult {
	return c.generate(a.features)
}

func (c *dotNetClient) generate(f *docFeatures) GenerationResult {
	var issues []Issue
	if c.lang == artifact.LangJScript && f.style == styleJava {
		issues = append(issues, warn(CodeEmptySoapAction,
			"soapAction attribute is empty; generated proxy may be incompatible with the endpoint"))
	}
	if f.langAttrRefs >= 2 {
		issues = append(issues, warn(CodeDuplicateAttr,
			"attribute xml:lang is referenced more than once on the same type"))
	}
	if len(f.foreignRefs) > 0 {
		issues = append(issues, errIssue(CodeUnresolvableRef,
			"unable to import binding: undefined element %s", f.foreignRefs[0]))
	}
	if f.vendorFacet != "" {
		issues = append(issues, errIssue(CodeVendorFacet,
			"schema restriction uses unknown facet %q", f.vendorFacet))
	}
	if f.zeroOperations {
		issues = append(issues, errIssue(CodeNoOperations,
			"no classes were generated: the description declares no operations"))
	}
	for _, i := range issues {
		if i.Severity >= artifact.SeverityError {
			return GenerationResult{Issues: issues}
		}
	}

	b := unitBuilder{
		lang:     c.lang,
		stemSfx:  "Proxy",
		unitName: unitNameFor(f),
	}
	switch c.lang {
	case artifact.LangVB:
		b.flattenParams = true
		b.renameCaseCollisions = true
	case artifact.LangJScript:
		b.accessorCalls = true
	}
	return GenerationResult{Unit: b.build(f), Issues: issues}
}

// Verify implements ClientFramework: compilation with the language
// back-end's semantics (csc, vbc or jsc).
func (c *dotNetClient) Verify(u *artifact.Unit) []artifact.Diagnostic {
	return c.compiler.Compile(u)
}
