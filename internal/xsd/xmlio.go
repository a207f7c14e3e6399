package xsd

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// schemaBufs recycles schema serialization buffers across
// MarshalSchema calls — the same pattern as wsdl.Marshal, which
// serializes one or more schema blocks per published document.
var schemaBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// This file implements XML parsing for the schema object model and the
// prefix table its writer (fastwrite.go) serializes with. The wire
// format follows the conventional layout used by JAX-WS and WCF
// emitters: one xs:schema element per target namespace, qualified
// references written as prefix:local with the prefix map declared on
// the schema element.
//
// The writer assigns prefixes deterministically (tns for the target
// namespace, xs for XML Schema, q1..qN for foreign namespaces) so that
// document output is byte-stable for a given model — a property the
// campaign runner and the round-trip property tests rely on.

// xmlSchema is the wire representation of a Schema, as UnmarshalSchema
// decodes it.
type xmlSchema struct {
	XMLName            xml.Name         `xml:"http://www.w3.org/2001/XMLSchema schema"`
	TargetNamespace    string           `xml:"targetNamespace,attr,omitempty"`
	ElementFormDefault string           `xml:"elementFormDefault,attr,omitempty"`
	Attrs              []xml.Attr       `xml:",any,attr"`
	Imports            []xmlImport      `xml:"import"`
	SimpleTypes        []xmlSimpleType  `xml:"simpleType"`
	ComplexTypes       []xmlComplexType `xml:"complexType"`
	Elements           []xmlElement     `xml:"element"`
}

type xmlImport struct {
	Namespace      string `xml:"namespace,attr"`
	SchemaLocation string `xml:"schemaLocation,attr,omitempty"`
}

type xmlElement struct {
	Name      string          `xml:"name,attr,omitempty"`
	Type      string          `xml:"type,attr,omitempty"`
	Ref       string          `xml:"ref,attr,omitempty"`
	MinOccurs string          `xml:"minOccurs,attr,omitempty"`
	MaxOccurs string          `xml:"maxOccurs,attr,omitempty"`
	Nillable  string          `xml:"nillable,attr,omitempty"`
	Inline    *xmlComplexType `xml:"complexType"`
}

type xmlComplexType struct {
	Name      string        `xml:"name,attr,omitempty"`
	Abstract  string        `xml:"abstract,attr,omitempty"`
	Sequence  *xmlSequence  `xml:"sequence"`
	Extension *xmlExtension `xml:"complexContent>extension"`
	Attrs     []xmlAttrDecl `xml:"attribute"`
}

type xmlExtension struct {
	Base     string        `xml:"base,attr"`
	Sequence *xmlSequence  `xml:"sequence"`
	Attrs    []xmlAttrDecl `xml:"attribute"`
}

type xmlSequence struct {
	Elements []xmlElement `xml:"element"`
	Any      []xmlAny     `xml:"any"`
}

type xmlAny struct {
	Namespace       string `xml:"namespace,attr,omitempty"`
	ProcessContents string `xml:"processContents,attr,omitempty"`
	MinOccurs       string `xml:"minOccurs,attr,omitempty"`
	MaxOccurs       string `xml:"maxOccurs,attr,omitempty"`
}

type xmlAttrDecl struct {
	Name string `xml:"name,attr,omitempty"`
	Type string `xml:"type,attr,omitempty"`
	Ref  string `xml:"ref,attr,omitempty"`
}

type xmlSimpleType struct {
	Name        string          `xml:"name,attr"`
	Restriction *xmlRestriction `xml:"restriction"`
}

type xmlRestriction struct {
	Base  string     `xml:"base,attr"`
	Inner []innerXML `xml:",any"`
}

type innerXML struct {
	XMLName xml.Name
	Value   string `xml:"value,attr"`
}

// PrefixTable maps namespace URIs to prefixes for one schema document.
// The mapping is a pair of parallel slices in assignment order: a
// document declares a handful of namespaces, where a linear probe
// beats a map and construction costs two small allocations.
type PrefixTable struct {
	ns     []string
	prefix []string
	target string
}

// ptInlineSlots sizes the inline namespace arrays: the three standing
// assignments plus a few foreign namespaces cover every document the
// study generates.
const ptInlineSlots = 6

// NewPrefixTable creates a deterministic prefix assignment for the
// given target namespace.
func NewPrefixTable(target string) *PrefixTable {
	pt := &PrefixTable{
		ns:     make([]string, 0, ptInlineSlots),
		prefix: make([]string, 0, ptInlineSlots),
	}
	pt.init(target)
	return pt
}

func (pt *PrefixTable) init(target string) {
	pt.target = target
	pt.assign(NamespaceXSD, "xs")
	if target != "" {
		pt.assign(target, "tns")
	}
	pt.assign(NamespaceXML, "xml")
}

var prefixTables = sync.Pool{New: func() any { return NewPrefixTable("") }}

// AcquirePrefixTable returns a pooled table initialized for the target
// namespace. Release with ReleasePrefixTable once the document using
// it has been fully written; tables are never retained by marshaling.
func AcquirePrefixTable(target string) *PrefixTable {
	pt := prefixTables.Get().(*PrefixTable)
	pt.ns = pt.ns[:0]
	pt.prefix = pt.prefix[:0]
	pt.init(target)
	return pt
}

// ReleasePrefixTable recycles a table obtained from AcquirePrefixTable.
func ReleasePrefixTable(pt *PrefixTable) {
	prefixTables.Put(pt)
}

func (pt *PrefixTable) assign(ns, prefix string) {
	for _, have := range pt.ns {
		if have == ns {
			return
		}
	}
	pt.ns = append(pt.ns, ns)
	pt.prefix = append(pt.prefix, prefix)
}

// Prefix returns the prefix for ns, assigning q1..qN on first use of a
// foreign namespace.
func (pt *PrefixTable) Prefix(ns string) string {
	for i, have := range pt.ns {
		if have == ns {
			return pt.prefix[i]
		}
	}
	p := "q" + strconv.Itoa(len(pt.ns))
	pt.ns = append(pt.ns, ns)
	pt.prefix = append(pt.prefix, p)
	return p
}

// Note assigns a prefix for the QName's namespace without rendering
// the reference — the allocation-free form the pre-assignment walks
// use, where only the assignment order matters.
func (pt *PrefixTable) Note(q QName) {
	if q.IsZero() || q.Space == "" {
		return
	}
	pt.Prefix(q.Space)
}

// Ref renders a QName as prefix:local using this table.
func (pt *PrefixTable) Ref(q QName) string {
	if q.IsZero() {
		return ""
	}
	if q.Space == "" {
		return q.Local
	}
	return pt.Prefix(q.Space) + ":" + q.Local
}

// Declarations returns the xmlns attributes for every assigned prefix
// except the reserved xml: prefix, in assignment order: the
// declarations the reference encoder (xsdtest) writes.
func (pt *PrefixTable) Declarations() []xml.Attr {
	attrs := make([]xml.Attr, 0, len(pt.ns))
	for i, ns := range pt.ns {
		if ns == NamespaceXML {
			continue
		}
		attrs = append(attrs, xml.Attr{
			Name:  xml.Name{Local: "xmlns:" + pt.prefix[i]},
			Value: ns,
		})
	}
	return attrs
}

// nsResolver resolves prefix:local strings back to QNames using the
// xmlns declarations captured during parsing.
type nsResolver struct {
	prefixes map[string]string
}

func newNSResolver(attrs []xml.Attr, target string) *nsResolver {
	r := &nsResolver{prefixes: map[string]string{
		"xml": NamespaceXML,
	}}
	for _, a := range attrs {
		if a.Name.Space == "xmlns" {
			r.prefixes[a.Name.Local] = a.Value
		} else if strings.HasPrefix(a.Name.Local, "xmlns:") {
			r.prefixes[strings.TrimPrefix(a.Name.Local, "xmlns:")] = a.Value
		} else if a.Name.Local == "xmlns" && a.Name.Space == "" {
			r.prefixes[""] = a.Value
		}
	}
	if _, ok := r.prefixes[""]; !ok {
		r.prefixes[""] = target
	}
	return r
}

func (r *nsResolver) qname(s string) (QName, error) {
	if s == "" {
		return QName{}, nil
	}
	prefix, local := "", s
	if i := strings.IndexByte(s, ':'); i >= 0 {
		prefix, local = s[:i], s[i+1:]
	}
	ns, ok := r.prefixes[prefix]
	if !ok {
		return QName{}, fmt.Errorf("xsd: undeclared namespace prefix %q in %q", prefix, s)
	}
	return QName{Space: ns, Local: local}, nil
}

// UnmarshalSchema parses one xs:schema XML document into the object
// model. Extra xmlns declarations present on the element are honoured
// when resolving qualified references.
func UnmarshalSchema(data []byte) (*Schema, error) {
	var ws xmlSchema
	if err := xml.Unmarshal(data, &ws); err != nil {
		return nil, fmt.Errorf("xsd: parse schema: %w", err)
	}
	return fromWireSchema(&ws)
}

func fromWireSchema(ws *xmlSchema) (*Schema, error) {
	res := newNSResolver(ws.Attrs, ws.TargetNamespace)
	sch := &Schema{
		TargetNamespace:    ws.TargetNamespace,
		ElementFormDefault: ws.ElementFormDefault,
	}
	for _, imp := range ws.Imports {
		sch.Imports = append(sch.Imports, Import(imp))
	}
	for _, wst := range ws.SimpleTypes {
		st, err := fromWireSimpleType(&wst, res)
		if err != nil {
			return nil, err
		}
		sch.SimpleTypes = append(sch.SimpleTypes, *st)
	}
	for i := range ws.ComplexTypes {
		ct, err := fromWireComplexType(&ws.ComplexTypes[i], res)
		if err != nil {
			return nil, err
		}
		sch.ComplexTypes = append(sch.ComplexTypes, *ct)
	}
	for i := range ws.Elements {
		el, err := fromWireElement(&ws.Elements[i], res)
		if err != nil {
			return nil, err
		}
		sch.Elements = append(sch.Elements, *el)
	}
	return sch, nil
}

func parseOccurs(minA, maxA string) (Occurs, error) {
	oc := Once
	if minA != "" {
		v, err := strconv.Atoi(minA)
		if err != nil {
			return oc, fmt.Errorf("xsd: bad minOccurs %q: %w", minA, err)
		}
		oc.Min = v
	}
	switch {
	case maxA == "unbounded":
		oc.Max = -1
	case maxA != "":
		v, err := strconv.Atoi(maxA)
		if err != nil {
			return oc, fmt.Errorf("xsd: bad maxOccurs %q: %w", maxA, err)
		}
		oc.Max = v
	}
	return oc, nil
}

func fromWireElement(we *xmlElement, res *nsResolver) (*Element, error) {
	el := &Element{Name: we.Name, Nillable: we.Nillable == "true"}
	var err error
	if el.Occurs, err = parseOccurs(we.MinOccurs, we.MaxOccurs); err != nil {
		return nil, err
	}
	if el.Type, err = res.qname(we.Type); err != nil {
		return nil, err
	}
	if el.Ref, err = res.qname(we.Ref); err != nil {
		return nil, err
	}
	if we.Inline != nil {
		ct, err := fromWireComplexType(we.Inline, res)
		if err != nil {
			return nil, err
		}
		el.Inline = ct
	}
	return el, nil
}

func fromWireComplexType(wct *xmlComplexType, res *nsResolver) (*ComplexType, error) {
	ct := &ComplexType{Name: wct.Name, Abstract: wct.Abstract == "true"}
	seq := wct.Sequence
	attrs := wct.Attrs
	if wct.Extension != nil {
		base, err := res.qname(wct.Extension.Base)
		if err != nil {
			return nil, err
		}
		ct.Base = base
		seq = wct.Extension.Sequence
		attrs = wct.Extension.Attrs
	}
	if seq != nil {
		for i := range seq.Elements {
			el, err := fromWireElement(&seq.Elements[i], res)
			if err != nil {
				return nil, err
			}
			ct.Sequence = append(ct.Sequence, *el)
		}
		for _, wa := range seq.Any {
			oc, err := parseOccurs(wa.MinOccurs, wa.MaxOccurs)
			if err != nil {
				return nil, err
			}
			ct.Any = append(ct.Any, AnyParticle{
				Namespace:       wa.Namespace,
				ProcessContents: wa.ProcessContents,
				Occurs:          oc,
			})
		}
	}
	for _, wa := range attrs {
		at := Attribute{Name: wa.Name}
		var err error
		if at.Type, err = res.qname(wa.Type); err != nil {
			return nil, err
		}
		if at.Ref, err = res.qname(wa.Ref); err != nil {
			return nil, err
		}
		ct.Attributes = append(ct.Attributes, at)
	}
	return ct, nil
}

func fromWireSimpleType(wst *xmlSimpleType, res *nsResolver) (*SimpleType, error) {
	st := &SimpleType{Name: wst.Name}
	if wst.Restriction != nil {
		base, err := res.qname(wst.Restriction.Base)
		if err != nil {
			return nil, err
		}
		st.Base = base
		for _, in := range wst.Restriction.Inner {
			st.Facets = append(st.Facets, Facet{Name: in.XMLName.Local, Value: in.Value})
		}
	}
	return st, nil
}
