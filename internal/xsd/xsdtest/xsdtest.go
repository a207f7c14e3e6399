// Package xsdtest holds the reference schema encoder that tests compare
// xsd.MarshalSchema against: the original serializer, which builds wire
// structs and hands them to encoding/xml. The hand-rolled writer
// (internal/xsd fastwrite.go) must reproduce its bytes exactly; the
// equivalence tests prove it on edge cases and over the published
// corpus.
package xsdtest

import (
	"bytes"
	"encoding/xml"
	"strconv"

	"wsinterop/internal/xsd"
)

// The wire representation of a schema, as the reference encoder
// writes it.
type (
	wireSchema struct {
		XMLName            xml.Name          `xml:"http://www.w3.org/2001/XMLSchema schema"`
		TargetNamespace    string            `xml:"targetNamespace,attr,omitempty"`
		ElementFormDefault string            `xml:"elementFormDefault,attr,omitempty"`
		Attrs              []xml.Attr        `xml:",any,attr"`
		Imports            []wireImport      `xml:"import"`
		SimpleTypes        []wireSimpleType  `xml:"simpleType"`
		ComplexTypes       []wireComplexType `xml:"complexType"`
		Elements           []wireElement     `xml:"element"`
	}
	wireImport struct {
		Namespace      string `xml:"namespace,attr"`
		SchemaLocation string `xml:"schemaLocation,attr,omitempty"`
	}
	wireElement struct {
		Name      string           `xml:"name,attr,omitempty"`
		Type      string           `xml:"type,attr,omitempty"`
		Ref       string           `xml:"ref,attr,omitempty"`
		MinOccurs string           `xml:"minOccurs,attr,omitempty"`
		MaxOccurs string           `xml:"maxOccurs,attr,omitempty"`
		Nillable  string           `xml:"nillable,attr,omitempty"`
		Inline    *wireComplexType `xml:"complexType"`
	}
	wireComplexType struct {
		Name      string         `xml:"name,attr,omitempty"`
		Abstract  string         `xml:"abstract,attr,omitempty"`
		Sequence  *wireSequence  `xml:"sequence"`
		Extension *wireExtension `xml:"complexContent>extension"`
		Attrs     []wireAttrDecl `xml:"attribute"`
	}
	wireExtension struct {
		Base     string         `xml:"base,attr"`
		Sequence *wireSequence  `xml:"sequence"`
		Attrs    []wireAttrDecl `xml:"attribute"`
	}
	wireSequence struct {
		Elements []wireElement `xml:"element"`
		Any      []wireAny     `xml:"any"`
	}
	wireAny struct {
		Namespace       string `xml:"namespace,attr,omitempty"`
		ProcessContents string `xml:"processContents,attr,omitempty"`
		MinOccurs       string `xml:"minOccurs,attr,omitempty"`
		MaxOccurs       string `xml:"maxOccurs,attr,omitempty"`
	}
	wireAttrDecl struct {
		Name string `xml:"name,attr,omitempty"`
		Type string `xml:"type,attr,omitempty"`
		Ref  string `xml:"ref,attr,omitempty"`
	}
	wireSimpleType struct {
		Name        string           `xml:"name,attr"`
		Restriction *wireRestriction `xml:"restriction"`
	}
	wireRestriction struct {
		Base  string      `xml:"base,attr"`
		Inner []wireFacet `xml:",any"`
	}
	wireFacet struct {
		XMLName xml.Name
		Value   string `xml:"value,attr"`
	}
)

// MarshalSchemaReference serializes one schema block through the wire
// structs and encoding/xml, with prefixes from pt (a fresh table for
// the schema's target namespace when nil). xsd.MarshalSchema must
// produce byte-identical output.
func MarshalSchemaReference(sch *xsd.Schema, pt *xsd.PrefixTable) ([]byte, error) {
	if pt == nil {
		pt = xsd.NewPrefixTable(sch.TargetNamespace)
	}
	ws := toWireSchema(sch, pt)
	ws.Attrs = pt.Declarations()
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(ws); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func toWireSchema(sch *xsd.Schema, pt *xsd.PrefixTable) *wireSchema {
	ws := &wireSchema{
		TargetNamespace:    sch.TargetNamespace,
		ElementFormDefault: sch.ElementFormDefault,
	}
	for _, imp := range sch.Imports {
		ws.Imports = append(ws.Imports, wireImport(imp))
	}
	for i := range sch.SimpleTypes {
		ws.SimpleTypes = append(ws.SimpleTypes, toWireSimpleType(&sch.SimpleTypes[i], pt))
	}
	for i := range sch.ComplexTypes {
		ws.ComplexTypes = append(ws.ComplexTypes, *toWireComplexType(&sch.ComplexTypes[i], pt))
	}
	for i := range sch.Elements {
		ws.Elements = append(ws.Elements, toWireElement(&sch.Elements[i], pt))
	}
	return ws
}

// occurs renders non-default occurrence bounds as minOccurs and
// maxOccurs attribute values; both empty for the default.
func occurs(oc xsd.Occurs) (minA, maxA string) {
	if oc == xsd.Once || oc == (xsd.Occurs{}) {
		return "", ""
	}
	if oc.Max < 0 {
		return strconv.Itoa(oc.Min), "unbounded"
	}
	return strconv.Itoa(oc.Min), strconv.Itoa(oc.Max)
}

func toWireElement(el *xsd.Element, pt *xsd.PrefixTable) wireElement {
	we := wireElement{
		Name: el.Name,
		Type: pt.Ref(el.Type),
		Ref:  pt.Ref(el.Ref),
	}
	we.MinOccurs, we.MaxOccurs = occurs(el.Occurs)
	if el.Nillable {
		we.Nillable = "true"
	}
	if el.Inline != nil {
		ct := toWireComplexType(el.Inline, pt)
		ct.Name = ""
		we.Inline = ct
	}
	return we
}

func toWireComplexType(ct *xsd.ComplexType, pt *xsd.PrefixTable) *wireComplexType {
	wct := &wireComplexType{Name: ct.Name}
	if ct.Abstract {
		wct.Abstract = "true"
	}
	seq := &wireSequence{}
	for i := range ct.Sequence {
		seq.Elements = append(seq.Elements, toWireElement(&ct.Sequence[i], pt))
	}
	for _, a := range ct.Any {
		wa := wireAny{Namespace: a.Namespace, ProcessContents: a.ProcessContents}
		wa.MinOccurs, wa.MaxOccurs = occurs(a.Occurs)
		seq.Any = append(seq.Any, wa)
	}
	var attrs []wireAttrDecl
	for _, at := range ct.Attributes {
		attrs = append(attrs, wireAttrDecl{Name: at.Name, Type: pt.Ref(at.Type), Ref: pt.Ref(at.Ref)})
	}
	if !ct.Base.IsZero() {
		wct.Extension = &wireExtension{Base: pt.Ref(ct.Base), Sequence: seq, Attrs: attrs}
	} else {
		if len(seq.Elements) > 0 || len(seq.Any) > 0 {
			wct.Sequence = seq
		}
		wct.Attrs = attrs
	}
	return wct
}

func toWireSimpleType(st *xsd.SimpleType, pt *xsd.PrefixTable) wireSimpleType {
	r := &wireRestriction{Base: pt.Ref(st.Base)}
	for _, f := range st.Facets {
		r.Inner = append(r.Inner, wireFacet{
			XMLName: xml.Name{Space: xsd.NamespaceXSD, Local: f.Name},
			Value:   f.Value,
		})
	}
	return wireSimpleType{Name: st.Name, Restriction: r}
}
