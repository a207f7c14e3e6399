package xsd

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// This file is the hand-rolled schema serializer. MarshalSchema used to
// build the wire structs of xmlio.go and hand them to encoding/xml's
// reflection encoder; at campaign scale that encoder dominated the
// publish hot path (~40% of a full run's CPU). The writer below emits
// the schema directly, byte-for-byte identical to the reference
// encoder — a property the shape-template verification, the checkpoint
// journal's re-split on resume, and the golden tests all depend on.
// xsdtest.MarshalSchemaReference keeps the old path alive as the
// differential oracle; TestMarshalSchemaMatchesReference (and its
// full-corpus variant) prove the two agree over every published
// document.

// indentUnit is the per-depth indentation the reference encoder was
// configured with (xml.Encoder.Indent("", "  ")).
const indentUnit = "  "

// MarshalSchemaTo serializes one schema block directly into buf, each
// line prefixed with basePrefix — the allocation-free form of
// MarshalSchema used by the WSDL writer, which embeds schema blocks at
// a fixed indentation. The output carries no trailing newline, exactly
// like the reference encoder's. The writer has no failing path, so the
// error is always nil; the result stays for the signature's callers.
func MarshalSchemaTo(buf *bytes.Buffer, sch *Schema, pt *PrefixTable, basePrefix string) error {
	if pt == nil {
		pt = AcquirePrefixTable(sch.TargetNamespace)
		defer ReleasePrefixTable(pt)
	}
	// Pre-assign foreign-namespace prefixes in the order the reference
	// encoder's wire-struct construction resolves them (sequence refs
	// before attribute refs before the extension base), so q1..qN land
	// on the same namespaces.
	assignSchemaPrefixes(sch, pt)
	w := schemaWriter{buf: buf, base: basePrefix, first: true}
	w.schema(sch, pt)
	return nil
}

// MarshalSchema serializes one schema block to XML. The prefix table
// may be shared with an enclosing WSDL writer; pass nil to create a
// fresh one.
func MarshalSchema(sch *Schema, pt *PrefixTable) ([]byte, error) {
	buf := schemaBufs.Get().(*bytes.Buffer)
	defer schemaBufs.Put(buf)
	buf.Reset()
	if err := MarshalSchemaTo(buf, sch, pt, ""); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// assignSchemaPrefixes walks the schema's qualified references in
// reference-encoder order, assigning q-prefixes for foreign namespaces.
func assignSchemaPrefixes(sch *Schema, pt *PrefixTable) {
	for i := range sch.SimpleTypes {
		pt.Note(sch.SimpleTypes[i].Base)
	}
	for i := range sch.ComplexTypes {
		assignComplexTypePrefixes(&sch.ComplexTypes[i], pt)
	}
	for i := range sch.Elements {
		assignElementPrefixes(&sch.Elements[i], pt)
	}
}

func assignElementPrefixes(el *Element, pt *PrefixTable) {
	pt.Note(el.Type)
	pt.Note(el.Ref)
	if el.Inline != nil {
		assignComplexTypePrefixes(el.Inline, pt)
	}
}

func assignComplexTypePrefixes(ct *ComplexType, pt *PrefixTable) {
	for i := range ct.Sequence {
		assignElementPrefixes(&ct.Sequence[i], pt)
	}
	for i := range ct.Attributes {
		pt.Note(ct.Attributes[i].Type)
		pt.Note(ct.Attributes[i].Ref)
	}
	pt.Note(ct.Base)
}

// schemaWriter emits indented XML lines. Every element starts on its
// own line (no newline before the very first); an element without
// child elements closes on the same line, matching the reference
// encoder's layout.
type schemaWriter struct {
	buf   *bytes.Buffer
	base  string
	first bool
}

var indentPad = []byte("                                                                ")

// line starts a new output line at the given depth.
func (w *schemaWriter) line(depth int) {
	if w.first {
		w.first = false
	} else {
		w.buf.WriteByte('\n')
	}
	w.buf.WriteString(w.base)
	for n := depth * len(indentUnit); n > 0; {
		c := n
		if c > len(indentPad) {
			c = len(indentPad)
		}
		w.buf.Write(indentPad[:c])
		n -= c
	}
}

// qref writes one qualified-reference attribute straight from the
// QName — the same bytes attr(name, pt.Ref(q)) produces, without
// materializing the prefix:local string. An attribute whose QName is
// zero is omitted, mirroring the callers' `if ref != ""` guards.
func (w *schemaWriter) qref(name string, pt *PrefixTable, q QName) {
	if q.IsZero() {
		return
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(name)
	w.buf.WriteString(`="`)
	if q.Space != "" {
		xmlEscapeTo(w.buf, pt.Prefix(q.Space))
		w.buf.WriteByte(':')
	}
	xmlEscapeTo(w.buf, q.Local)
	w.buf.WriteByte('"')
}

// attr writes one attribute with XML-escaped value.
func (w *schemaWriter) attr(name, value string) {
	w.buf.WriteByte(' ')
	w.buf.WriteString(name)
	w.buf.WriteString(`="`)
	xmlEscapeTo(w.buf, value)
	w.buf.WriteByte('"')
}

func (w *schemaWriter) schema(sch *Schema, pt *PrefixTable) {
	w.line(0)
	w.buf.WriteString(`<schema xmlns="` + NamespaceXSD + `"`)
	if sch.TargetNamespace != "" {
		w.attr("targetNamespace", sch.TargetNamespace)
	}
	if sch.ElementFormDefault != "" {
		w.attr("elementFormDefault", sch.ElementFormDefault)
	}
	for i, ns := range pt.ns {
		if ns == NamespaceXML {
			continue
		}
		w.buf.WriteString(" xmlns:")
		w.buf.WriteString(pt.prefix[i])
		w.buf.WriteString(`="`)
		xmlEscapeTo(w.buf, ns)
		w.buf.WriteByte('"')
	}
	w.buf.WriteByte('>')

	if len(sch.Imports) == 0 && len(sch.SimpleTypes) == 0 &&
		len(sch.ComplexTypes) == 0 && len(sch.Elements) == 0 {
		// Childless schema: the reference encoder closes on the same line.
		w.buf.WriteString("</schema>")
		return
	}

	for i := range sch.Imports {
		imp := &sch.Imports[i]
		w.line(1)
		w.buf.WriteString("<import")
		w.attr("namespace", imp.Namespace)
		if imp.SchemaLocation != "" {
			w.attr("schemaLocation", imp.SchemaLocation)
		}
		w.buf.WriteString("></import>")
	}
	for i := range sch.SimpleTypes {
		w.simpleType(&sch.SimpleTypes[i], pt)
	}
	for i := range sch.ComplexTypes {
		w.complexType(&sch.ComplexTypes[i], pt, 1, true)
	}
	for i := range sch.Elements {
		w.element(&sch.Elements[i], pt, 1)
	}

	w.line(0)
	w.buf.WriteString("</schema>")
}

func (w *schemaWriter) simpleType(st *SimpleType, pt *PrefixTable) {
	w.line(1)
	w.buf.WriteString("<simpleType")
	w.attr("name", st.Name)
	w.buf.WriteByte('>')
	w.line(2)
	w.buf.WriteString("<restriction")
	if st.Base.IsZero() {
		// The reference path emits base="" for a zero QName.
		w.attr("base", "")
	} else {
		w.qref("base", pt, st.Base)
	}
	w.buf.WriteByte('>')
	for _, f := range st.Facets {
		// The reference encoder emits the facet element name verbatim —
		// no validation, no escaping — and re-declares the XSD namespace
		// on each (the wire xml.Name carries an explicit Space). A facet
		// with an empty name falls back to the wire field name, with no
		// namespace re-declaration. Replicate both quirks.
		name := f.Name
		w.line(3)
		w.buf.WriteByte('<')
		if name == "" {
			name = "Inner"
			w.buf.WriteString(name)
		} else {
			w.buf.WriteString(name)
			w.attr("xmlns", NamespaceXSD)
		}
		w.attr("value", f.Value)
		w.buf.WriteString("></")
		w.buf.WriteString(name)
		w.buf.WriteByte('>')
	}
	if len(st.Facets) > 0 {
		w.line(2)
	}
	w.buf.WriteString("</restriction>")
	w.line(1)
	w.buf.WriteString("</simpleType>")
}

// complexType writes one complexType block. named=false is the inline
// (anonymous) form, whose name attribute the reference path clears.
func (w *schemaWriter) complexType(ct *ComplexType, pt *PrefixTable, depth int, named bool) {
	w.line(depth)
	w.buf.WriteString("<complexType")
	if named && ct.Name != "" {
		w.attr("name", ct.Name)
	}
	if ct.Abstract {
		w.attr("abstract", "true")
	}
	w.buf.WriteByte('>')

	hasSeq := len(ct.Sequence) > 0 || len(ct.Any) > 0
	if !ct.Base.IsZero() {
		// complexContent>extension: the sequence element is emitted even
		// when empty, mirroring the wire struct's always-set pointer.
		w.line(depth + 1)
		w.buf.WriteString("<complexContent>")
		w.line(depth + 2)
		w.buf.WriteString("<extension")
		w.qref("base", pt, ct.Base)
		w.buf.WriteByte('>')
		w.sequence(ct, pt, depth+3, true)
		w.attributes(ct, pt, depth+3)
		w.line(depth + 2)
		w.buf.WriteString("</extension>")
		w.line(depth + 1)
		w.buf.WriteString("</complexContent>")
		w.line(depth)
	} else {
		if hasSeq {
			w.sequence(ct, pt, depth+1, false)
		}
		w.attributes(ct, pt, depth+1)
		if hasSeq || len(ct.Attributes) > 0 {
			w.line(depth)
		}
	}
	w.buf.WriteString("</complexType>")
}

// sequence writes the sequence block; always=true emits an empty
// <sequence></sequence> (the extension form).
func (w *schemaWriter) sequence(ct *ComplexType, pt *PrefixTable, depth int, always bool) {
	empty := len(ct.Sequence) == 0 && len(ct.Any) == 0
	if empty && !always {
		return
	}
	w.line(depth)
	w.buf.WriteString("<sequence>")
	for i := range ct.Sequence {
		w.element(&ct.Sequence[i], pt, depth+1)
	}
	for i := range ct.Any {
		a := &ct.Any[i]
		w.line(depth + 1)
		w.buf.WriteString("<any")
		if a.Namespace != "" {
			w.attr("namespace", a.Namespace)
		}
		if a.ProcessContents != "" {
			w.attr("processContents", a.ProcessContents)
		}
		w.occurs(a.Occurs)
		w.buf.WriteString("></any>")
	}
	if !empty {
		w.line(depth)
	}
	w.buf.WriteString("</sequence>")
}

func (w *schemaWriter) attributes(ct *ComplexType, pt *PrefixTable, depth int) {
	for i := range ct.Attributes {
		at := &ct.Attributes[i]
		w.line(depth)
		w.buf.WriteString("<attribute")
		if at.Name != "" {
			w.attr("name", at.Name)
		}
		w.qref("type", pt, at.Type)
		w.qref("ref", pt, at.Ref)
		w.buf.WriteString("></attribute>")
	}
}

func (w *schemaWriter) element(el *Element, pt *PrefixTable, depth int) {
	w.line(depth)
	w.buf.WriteString("<element")
	if el.Name != "" {
		w.attr("name", el.Name)
	}
	w.qref("type", pt, el.Type)
	w.qref("ref", pt, el.Ref)
	w.occurs(el.Occurs)
	if el.Nillable {
		w.attr("nillable", "true")
	}
	w.buf.WriteByte('>')
	if el.Inline != nil {
		w.complexType(el.Inline, pt, depth+1, false)
		w.line(depth)
	}
	w.buf.WriteString("</element>")
}

// occurs writes the minOccurs/maxOccurs pair under the same condition
// the wire conversion uses: only when the value is neither Once nor the
// zero Occurs.
func (w *schemaWriter) occurs(oc Occurs) {
	if oc == Once || oc == (Occurs{}) {
		return
	}
	w.attr("minOccurs", strconv.Itoa(oc.Min))
	if oc.Max < 0 {
		w.attr("maxOccurs", "unbounded")
	} else {
		w.attr("maxOccurs", strconv.Itoa(oc.Max))
	}
}

// xmlEscapeTo writes s with the exact escaping xml.EscapeText applies
// inside attribute values: the five XML specials, the three whitespace
// controls, and U+FFFD for bytes outside the XML character range.
func xmlEscapeTo(buf *bytes.Buffer, s string) {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !isInCharacterRange(r) || (r == utf8.RuneError && width == 1) {
				esc = "�"
				break
			}
			i += width
			continue
		}
		buf.WriteString(s[last:i])
		buf.WriteString(esc)
		i += width
		last = i
	}
	buf.WriteString(s[last:])
}

// isInCharacterRange mirrors encoding/xml's XML character production.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
