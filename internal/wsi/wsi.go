// Package wsi implements a WS-I Basic Profile 1.1-style compliance
// checker for WSDL 1.1 service descriptions.
//
// The Web Services Interoperability Organization's Basic Profile is a
// set of testable assertions that constrain how the underlying
// standards (WSDL 1.1, SOAP 1.1, XML Schema) may be used, so that
// descriptions remain consumable by every mainstream toolkit. This
// package implements the assertion families the study's corpus
// exercises: resolvable schema references, SOAP-over-HTTP bindings,
// literal use, consistent styles, declared soapAction attributes, and
// the recommended XSD facet vocabulary.
//
// Beyond the profile itself the checker offers one *extended*
// assertion, EXT4001, flagging WSDLs that declare no operations. The
// paper (§IV.A) shows such documents pass the official WS-I check yet
// are unusable, and argues the schema's minimum operation count should
// be raised — EXT4001 is that recommendation, implemented.
package wsi

import (
	"fmt"

	"wsinterop/internal/wsdl"
	"wsinterop/internal/xsd"
)

// Assertion identifies one profile assertion.
type Assertion struct {
	// ID is the assertion identifier. IDs follow the BP numbering
	// style (Rxxxx); extended assertions use the EXT prefix.
	ID string
	// Description states the requirement.
	Description string
	// Extended marks assertions beyond the official profile.
	Extended bool
}

// Violation is one failed assertion instance.
type Violation struct {
	Assertion Assertion
	// Detail describes the offending construct.
	Detail string
}

// String renders the violation in report style.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (%s)", v.Assertion.ID, v.Detail, v.Assertion.Description)
}

// Report is the outcome of checking one document.
type Report struct {
	// Violations lists every failed assertion instance, profile
	// assertions first.
	Violations []Violation
}

// Compliant reports whether the document passes every assertion of
// the official profile. Extended-assertion findings do not affect
// compliance.
func (r *Report) Compliant() bool {
	for _, v := range r.Violations {
		if !v.Assertion.Extended {
			return false
		}
	}
	return true
}

// Assertions implemented by the checker.
var (
	AssertionResolvableRefs = Assertion{
		ID:          "R2001",
		Description: "a DESCRIPTION must only use QName references that can be resolved within the description or its imports",
	}
	AssertionImportLocation = Assertion{
		ID:          "R2007",
		Description: "an xsd:import must not omit the schemaLocation attribute",
	}
	AssertionTargetNamespace = Assertion{
		ID:          "R2105",
		Description: "all xsd:schema elements contained in a types element must have a targetNamespace",
	}
	AssertionStandardFacets = Assertion{
		ID:          "R2112",
		Description: "simple type restrictions must use only XML Schema facets",
	}
	AssertionNoForeignAttrs = Assertion{
		ID:          "R2113",
		Description: "element declarations must not reference attributes from foreign vocabularies such as xml:lang",
	}
	AssertionSOAPTransport = Assertion{
		ID:          "R2702",
		Description: "a wsdl:binding must use the SOAP/HTTP transport",
	}
	AssertionLiteralUse = Assertion{
		ID:          "R2706",
		Description: "a wsdl:binding must use use=\"literal\" in soapbind:body elements",
	}
	AssertionConsistentStyle = Assertion{
		ID:          "R2705",
		Description: "a wsdl:binding must use the same operation style for all its operations",
	}
	AssertionSOAPAction = Assertion{
		ID:          "R2745",
		Description: "soapbind:operation must declare a soapAction attribute",
	}
	AssertionBindingResolves = Assertion{
		ID:          "R2101",
		Description: "binding, portType, message and service references must resolve within the description",
	}
	AssertionPartReference = Assertion{
		ID:          "R2204",
		Description: "document-literal message parts must reference global element declarations",
	}
	AssertionRPCPartType = Assertion{
		ID:          "R2203",
		Description: "rpc-literal message parts must use the type attribute",
	}
	AssertionRPCNamespace = Assertion{
		ID:          "R2717",
		Description: "rpc-literal soapbind:body elements must declare a namespace attribute",
	}
	AssertionDocNoNamespace = Assertion{
		ID:          "R2716",
		Description: "document-literal soapbind:body elements must not declare a namespace attribute",
	}
	AssertionUniqueOperations = Assertion{
		ID:          "R2304",
		Description: "operations within a wsdl:portType must have unique names",
	}
	AssertionServicePresent = Assertion{
		ID:          "R2800",
		Description: "a DESCRIPTION must include at least one wsdl:service with a SOAP port",
	}
	AssertionHasOperations = Assertion{
		ID:          "EXT4001",
		Description: "a usable DESCRIPTION should declare at least one operation (extended assertion; see DSN'14 §IV.A)",
		Extended:    true,
	}
)

// AllAssertions lists every assertion of the default (BP 1.1)
// profile, in check order. Other registered profiles advertise their
// own sets through Profile.Assertions.
func AllAssertions() []Assertion {
	return []Assertion{
		AssertionResolvableRefs, AssertionImportLocation,
		AssertionTargetNamespace, AssertionStandardFacets,
		AssertionNoForeignAttrs, AssertionSOAPTransport,
		AssertionLiteralUse, AssertionConsistentStyle,
		AssertionSOAPAction, AssertionBindingResolves,
		AssertionPartReference, AssertionRPCPartType,
		AssertionRPCNamespace, AssertionDocNoNamespace,
		AssertionUniqueOperations, AssertionServicePresent,
		AssertionHasOperations,
	}
}

// Checker verifies WSDL documents against one compliance profile. The
// zero value runs every assertion of the default BP 1.1 profile; use
// NewChecker for option handling.
type Checker struct {
	// profile is the compliance profile to check against; nil means
	// the default BP 1.1 profile.
	profile *Profile
	// skipExtended disables the extended assertions, reproducing the
	// official tool's behaviour.
	skipExtended bool
}

// Option customizes a Checker.
type Option func(*Checker)

// WithoutExtended disables the extended assertions so the checker
// matches the official WS-I tool, which the paper shows is blind to
// zero-operation WSDLs.
func WithoutExtended() Option {
	return func(c *Checker) { c.skipExtended = true }
}

// WithProfile selects the compliance profile the checker verifies
// against. A nil profile keeps the default (BP 1.1).
func WithProfile(p *Profile) Option {
	return func(c *Checker) { c.profile = p }
}

// NewChecker creates a checker.
func NewChecker(opts ...Option) *Checker {
	c := &Checker{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Profile returns the profile this checker verifies against.
func (c *Checker) Profile() *Profile {
	if c.profile != nil {
		return c.profile
	}
	return DefaultProfile()
}

// Check runs every assertion of the checker's profile against the
// document and returns the report. A nil document yields a single
// R2101 violation.
func (c *Checker) Check(d *wsdl.Definitions) *Report {
	p := c.Profile()
	r := &Report{}
	if d == nil {
		r.add(AssertionBindingResolves, "no description document")
		return r
	}
	for _, chk := range p.checks {
		chk(d, r)
	}
	if !c.skipExtended {
		for _, chk := range p.extended {
			chk(d, r)
		}
	}
	return r
}

func (r *Report) add(a Assertion, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Assertion: a,
		Detail:    fmt.Sprintf(format, args...),
	})
}

func checkSchemas(d *wsdl.Definitions, r *Report) {
	if d.Types == nil || len(d.Types.Schemas) == 0 {
		return
	}
	for _, sch := range d.Types.Schemas {
		if sch == nil {
			// A broken set; Resolve reports it below.
			continue
		}
		if sch.TargetNamespace == "" {
			r.add(AssertionTargetNamespace, "schema without targetNamespace")
		}
		for _, imp := range sch.Imports {
			if imp.SchemaLocation == "" {
				r.add(AssertionImportLocation, "import of %q omits schemaLocation", imp.Namespace)
			}
		}
		for _, st := range sch.SimpleTypes {
			for _, f := range st.Facets {
				if !xsd.IsStandardFacet(f.Name) {
					r.add(AssertionStandardFacets,
						"simpleType %q uses non-standard facet %q", st.Name, f.Name)
				}
			}
		}
		checkForeignAttrs(sch, r)
	}
	unresolved, err := d.Types.Resolve()
	if err != nil {
		// A set too broken to resolve at all is the profile violation,
		// not a free pass: every QName reference into it is unresolvable.
		r.add(AssertionResolvableRefs, "schema resolution failed: %v", err)
		return
	}
	for _, u := range unresolved {
		r.add(AssertionResolvableRefs, "%s", u.Error())
	}
}

func checkForeignAttrs(sch *xsd.Schema, r *Report) {
	// Most schemas carry no foreign attribute at all; probe with an
	// allocation-free walk first and build the location strings only
	// for the schemas that will actually report.
	if !schemaHasForeignAttr(sch) {
		return
	}
	var walk func(ct *xsd.ComplexType, where string)
	walk = func(ct *xsd.ComplexType, where string) {
		for _, at := range ct.Attributes {
			if at.Ref.Space == xsd.NamespaceXML {
				r.add(AssertionNoForeignAttrs,
					"%s references foreign attribute %s", where, at.Ref)
			}
		}
		for i := range ct.Sequence {
			if ct.Sequence[i].Inline != nil {
				walk(ct.Sequence[i].Inline, where+"/"+ct.Sequence[i].Name)
			}
		}
	}
	for i := range sch.ComplexTypes {
		walk(&sch.ComplexTypes[i], "complexType "+sch.ComplexTypes[i].Name)
	}
	for i := range sch.Elements {
		if sch.Elements[i].Inline != nil {
			walk(sch.Elements[i].Inline, "element "+sch.Elements[i].Name)
		}
	}
}

// schemaHasForeignAttr reports whether any complex type in the schema
// (at any inline depth) references an xml-namespace attribute.
func schemaHasForeignAttr(sch *xsd.Schema) bool {
	for i := range sch.ComplexTypes {
		if ctHasForeignAttr(&sch.ComplexTypes[i]) {
			return true
		}
	}
	for i := range sch.Elements {
		if sch.Elements[i].Inline != nil && ctHasForeignAttr(sch.Elements[i].Inline) {
			return true
		}
	}
	return false
}

func ctHasForeignAttr(ct *xsd.ComplexType) bool {
	for _, at := range ct.Attributes {
		if at.Ref.Space == xsd.NamespaceXML {
			return true
		}
	}
	for i := range ct.Sequence {
		if ct.Sequence[i].Inline != nil && ctHasForeignAttr(ct.Sequence[i].Inline) {
			return true
		}
	}
	return false
}

func checkStructure(d *wsdl.Definitions, r *Report) {
	for _, se := range d.Validate() {
		r.add(AssertionBindingResolves, "%s", se.Error())
	}
	for _, pt := range d.PortTypes {
		seen := make(map[string]bool, len(pt.Operations))
		for _, op := range pt.Operations {
			if seen[op.Name] {
				r.add(AssertionUniqueOperations,
					"portType %q declares operation %q more than once", pt.Name, op.Name)
			}
			seen[op.Name] = true
		}
	}
	// R2800 requires a SOAP port, not merely a port: each port's
	// binding must resolve and use the SOAP/HTTP transport (an empty
	// transport serializes as SOAP/HTTP, so it counts).
	hasSOAPPort := false
	for _, svc := range d.Services {
		for _, p := range svc.Ports {
			b := d.Binding(p.Binding)
			if b == nil {
				continue
			}
			if b.Transport == "" || b.Transport == wsdl.NamespaceSOAPHTTP {
				hasSOAPPort = true
			}
		}
	}
	if !hasSOAPPort {
		r.add(AssertionServicePresent, "no wsdl:service with a SOAP port")
	}
	// Per-style part constraints: document-literal parts must
	// reference elements (R2204), rpc-literal parts must reference
	// types (R2203).
	for _, b := range d.Bindings {
		rpc := b.Style == wsdl.StyleRPC
		pt := d.PortType(b.PortType)
		if pt == nil {
			continue
		}
		for _, op := range pt.Operations {
			for _, ref := range []wsdl.IORef{op.Input, op.Output} {
				if ref.Message == "" {
					continue
				}
				m := d.Message(ref.Message)
				if m == nil {
					continue
				}
				for _, part := range m.Parts {
					switch {
					case !rpc && part.Element.IsZero() && !part.Type.IsZero():
						r.add(AssertionPartReference,
							"message %q part %q uses a type reference under a document-style binding", m.Name, part.Name)
					case rpc && part.Type.IsZero() && !part.Element.IsZero():
						r.add(AssertionRPCPartType,
							"message %q part %q uses an element reference under an rpc-style binding", m.Name, part.Name)
					}
				}
			}
		}
	}
}

func checkBindings(d *wsdl.Definitions, r *Report) {
	for bi := range d.Bindings {
		b := &d.Bindings[bi]
		if b.Transport != "" && b.Transport != wsdl.NamespaceSOAPHTTP {
			r.add(AssertionSOAPTransport,
				"binding %q uses transport %q", b.Name, b.Transport)
		}
		rpc := b.Style == wsdl.StyleRPC
		var firstStyle wsdl.Style
		mixed := false
		for oi := range b.Operations {
			bop := &b.Operations[oi]
			if bop.OmitSOAPAction {
				r.add(AssertionSOAPAction,
					"binding %q operation %q does not declare a soapAction attribute", b.Name, bop.Name)
			}
			es := b.EffectiveStyle(bop)
			if firstStyle == "" {
				firstStyle = es
			} else if es != firstStyle {
				mixed = true
			}
			if bop.InputUse == wsdl.UseEncoded || bop.OutputUse == wsdl.UseEncoded {
				r.add(AssertionLiteralUse,
					"binding %q operation %q uses encoded bodies", b.Name, bop.Name)
			}
			switch {
			case rpc && bop.BodyNamespace == "":
				r.add(AssertionRPCNamespace,
					"binding %q operation %q omits the soapbind:body namespace", b.Name, bop.Name)
			case !rpc && bop.BodyNamespace != "":
				r.add(AssertionDocNoNamespace,
					"binding %q operation %q declares a soapbind:body namespace", b.Name, bop.Name)
			}
		}
		if mixed {
			r.add(AssertionConsistentStyle,
				"binding %q mixes document and rpc operation styles", b.Name)
		}
	}
}

// checkExtendedOperations is the extended EXT4001 check: a usable
// description declares at least one operation (DSN'14 §IV.A).
func checkExtendedOperations(d *wsdl.Definitions, r *Report) {
	if d.OperationCount() == 0 {
		r.add(AssertionHasOperations, "description declares no operations")
	}
}
