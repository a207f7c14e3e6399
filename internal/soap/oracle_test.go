package soap

// The oracle: the envelope decoders and writer as they stood before
// Scan, kept verbatim (renamed) as the contract the one-walk readers
// must reproduce. Detect ran its own token walk; the strict codecs
// gated on it and then walked again through reflective xml.Unmarshal;
// the lenient parsers gated on it and walked again into a tree; the
// writer formatted with fmt. FuzzScanMatchesOracle and
// FuzzMarshalMatchesOracle (scan_test.go) compare every reader and
// writer against these, down to the error text.

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"mime"
	"sort"
)

func oracleEscape(s string) string {
	var b bytes.Buffer
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}

func oracleMarshalMessage(prefix, ns string, m *Message) ([]byte, error) {
	if m.Local == "" {
		return nil, errors.New("soap: message has no wrapper element name")
	}
	if !ValidNCName(m.Local) {
		return nil, fmt.Errorf("soap: wrapper name %q is not a valid XML NCName", m.Local)
	}
	for name := range m.Fields {
		if !ValidNCName(name) {
			return nil, fmt.Errorf("soap: field name %q is not a valid XML NCName", name)
		}
	}
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	buf.WriteString(`<` + prefix + `:Envelope xmlns:` + prefix + `="` + ns + `">` + "\n")
	buf.WriteString("  <" + prefix + ":Body>\n")
	fmt.Fprintf(&buf, "    <m:%s xmlns:m=%q>\n", m.Local, m.Namespace)

	names := make([]string, 0, len(m.Fields))
	for k := range m.Fields {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&buf, "      <m:%s>%s</m:%s>\n", name, oracleEscape(m.Fields[name]), name)
	}

	fmt.Fprintf(&buf, "    </m:%s>\n", m.Local)
	buf.WriteString("  </" + prefix + ":Body>\n")
	buf.WriteString("</" + prefix + ":Envelope>\n")
	return buf.Bytes(), nil
}

func oracleMarshalFault11(f *Fault) []byte {
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	buf.WriteString(`<soap:Envelope xmlns:soap="` + NamespaceEnvelope + `">` + "\n")
	buf.WriteString("  <soap:Body>\n")
	buf.WriteString("    <soap:Fault>\n")
	fmt.Fprintf(&buf, "      <faultcode>%s</faultcode>\n", oracleEscape(f.Code))
	fmt.Fprintf(&buf, "      <faultstring>%s</faultstring>\n", oracleEscape(f.String))
	if f.Actor != "" {
		fmt.Fprintf(&buf, "      <faultactor>%s</faultactor>\n", oracleEscape(f.Actor))
	}
	if f.Detail != "" {
		fmt.Fprintf(&buf, "      <detail>%s</detail>\n", oracleEscape(f.Detail))
	}
	buf.WriteString("    </soap:Fault>\n")
	buf.WriteString("  </soap:Body>\n")
	buf.WriteString("</soap:Envelope>\n")
	return buf.Bytes()
}

func oracleMarshalFault12(f *Fault) []byte {
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	buf.WriteString(`<env:Envelope xmlns:env="` + NamespaceEnvelope12 + `">` + "\n")
	buf.WriteString("  <env:Body>\n")
	buf.WriteString("    <env:Fault>\n")
	buf.WriteString("      <env:Code>\n")
	fmt.Fprintf(&buf, "        <env:Value>%s</env:Value>\n", oracleEscape(f.Code))
	buf.WriteString("      </env:Code>\n")
	buf.WriteString("      <env:Reason>\n")
	fmt.Fprintf(&buf, "        <env:Text xml:lang=\"en\">%s</env:Text>\n", oracleEscape(f.String))
	buf.WriteString("      </env:Reason>\n")
	if f.Actor != "" {
		fmt.Fprintf(&buf, "      <env:Node>%s</env:Node>\n", oracleEscape(f.Actor))
	}
	if f.Detail != "" {
		fmt.Fprintf(&buf, "      <env:Detail>%s</env:Detail>\n", oracleEscape(f.Detail))
	}
	buf.WriteString("    </env:Fault>\n")
	buf.WriteString("  </env:Body>\n")
	buf.WriteString("</env:Envelope>\n")
	return buf.Bytes()
}

func oracleContentType12(action string) string {
	if action == "" {
		return ContentType12
	}
	return ContentType12 + fmt.Sprintf("; action=%q", action)
}

// oracleEnvelope is the 1.1 parse-side wire structure.
type oracleEnvelope struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    struct {
		Fault   *Fault        `xml:"http://schemas.xmlsoap.org/soap/envelope/ Fault"`
		Payload oraclePayload `xml:",any"`
	} `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

type oraclePayload struct {
	XMLName  xml.Name
	Children []oracleChild `xml:",any"`
}

type oracleChild struct {
	XMLName xml.Name
	Value   string `xml:",chardata"`
}

func oracleUnmarshal11(data []byte) (*Message, error) {
	switch dv := oracleDetect(data, ""); dv {
	case Version12, VersionHybrid:
		return nil, &DecodeError{
			Reason:  "envelope is not pure SOAP 1.1 (detected " + dv.String() + ")",
			Version: dv,
		}
	}
	var env oracleEnvelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return nil, &DecodeError{Reason: "malformed envelope", Err: err}
	}
	if env.Body.Fault != nil {
		return nil, env.Body.Fault
	}
	return oracleMessageFromPayload(env.Body.Payload)
}

func oracleMessageFromPayload(p oraclePayload) (*Message, error) {
	if p.XMLName.Local == "" {
		return nil, &DecodeError{Reason: "no payload", Err: ErrNoBody}
	}
	if p.XMLName.Space == NamespaceEnvelope || p.XMLName.Space == NamespaceEnvelope12 {
		return nil, &DecodeError{
			Reason:  fmt.Sprintf("payload element %q lives in a SOAP envelope namespace", p.XMLName.Local),
			Version: VersionHybrid,
		}
	}
	m := &Message{
		Namespace: p.XMLName.Space,
		Local:     p.XMLName.Local,
		Fields:    make(map[string]string, len(p.Children)),
	}
	for _, c := range p.Children {
		if _, dup := m.Fields[c.XMLName.Local]; dup {
			return nil, &DecodeError{Reason: fmt.Sprintf("duplicate payload element %q", c.XMLName.Local)}
		}
		m.Fields[c.XMLName.Local] = c.Value
	}
	return m, nil
}

// oracleEnvelope12 is the 1.2 parse-side wire structure.
type oracleEnvelope12 struct {
	XMLName xml.Name `xml:"http://www.w3.org/2003/05/soap-envelope Envelope"`
	Body    struct {
		Fault   *oracleFault12 `xml:"http://www.w3.org/2003/05/soap-envelope Fault"`
		Payload oraclePayload  `xml:",any"`
	} `xml:"http://www.w3.org/2003/05/soap-envelope Body"`
}

type oracleFault12 struct {
	Code struct {
		Value string `xml:"http://www.w3.org/2003/05/soap-envelope Value"`
	} `xml:"http://www.w3.org/2003/05/soap-envelope Code"`
	Reason struct {
		Text string `xml:"http://www.w3.org/2003/05/soap-envelope Text"`
	} `xml:"http://www.w3.org/2003/05/soap-envelope Reason"`
	Node   string `xml:"http://www.w3.org/2003/05/soap-envelope Node"`
	Detail string `xml:"http://www.w3.org/2003/05/soap-envelope Detail"`
}

func oracleUnmarshal12(data []byte) (*Message, error) {
	switch dv := oracleDetect(data, ""); dv {
	case Version11, VersionHybrid:
		return nil, &DecodeError{
			Reason:  "envelope is not pure SOAP 1.2 (detected " + dv.String() + ")",
			Version: dv,
		}
	}
	var env oracleEnvelope12
	if err := xml.Unmarshal(data, &env); err != nil {
		return nil, &DecodeError{Reason: "malformed envelope", Err: err}
	}
	if f := env.Body.Fault; f != nil {
		return nil, &Fault{Code: f.Code.Value, String: f.Reason.Text, Actor: f.Node, Detail: f.Detail}
	}
	return oracleMessageFromPayload(env.Body.Payload)
}

type oracleSignals struct {
	envelope bool
	rootNS   string
	fault11  bool
	fault12  bool
}

func oracleScanSignals(data []byte) oracleSignals {
	var sig oracleSignals
	dec := xml.NewDecoder(bytes.NewReader(data))
	depth := 0
	inBody := false
	faultDepth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return sig
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			switch {
			case depth == 1:
				if t.Name.Local != "Envelope" {
					return sig
				}
				sig.envelope = true
				sig.rootNS = t.Name.Space
			case depth == 2:
				inBody = t.Name.Local == "Body"
			case depth == 3 && inBody && t.Name.Local == "Fault":
				switch t.Name.Space {
				case NamespaceEnvelope:
					faultDepth = depth
				case NamespaceEnvelope12:
					faultDepth = depth
					sig.fault12 = true
				}
			case faultDepth != 0 && depth == faultDepth+1:
				switch t.Name.Local {
				case "faultcode", "faultstring":
					if t.Name.Space == "" || t.Name.Space == NamespaceEnvelope {
						sig.fault11 = true
					}
				case "Code", "Reason":
					if t.Name.Space == NamespaceEnvelope || t.Name.Space == NamespaceEnvelope12 {
						sig.fault12 = true
					}
				}
			}
		case xml.EndElement:
			if faultDepth != 0 && depth == faultDepth {
				faultDepth = 0
			}
			if depth == 2 {
				inBody = false
			}
			depth--
		}
	}
}

func oracleDetect(data []byte, contentType string) Version {
	sig := oracleScanSignals(data)
	if !sig.envelope {
		return VersionUnknown
	}
	var sees11, sees12 bool
	switch sig.rootNS {
	case NamespaceEnvelope:
		sees11 = true
	case NamespaceEnvelope12:
		sees12 = true
	default:
		return VersionUnknown
	}
	if contentType != "" {
		if mediaType, _, err := mime.ParseMediaType(contentType); err == nil {
			switch mediaType {
			case "text/xml":
				sees11 = true
			case "application/soap+xml":
				sees12 = true
			}
		}
	}
	if sig.fault11 {
		sees11 = true
	}
	if sig.fault12 {
		sees12 = true
	}
	switch {
	case sees11 && sees12:
		return VersionHybrid
	case sees12:
		return Version12
	default:
		return Version11
	}
}

type oracleNode struct {
	name xml.Name
	text string
	kids []*oracleNode
}

func (n *oracleNode) kid(local string) *oracleNode {
	for _, k := range n.kids {
		if k.name.Local == local {
			return k
		}
	}
	return nil
}

func oracleParseTree(data []byte) (*oracleNode, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var root *oracleNode
	var stack []*oracleNode
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) >= 32 {
				return nil, errors.New("document nested too deeply")
			}
			n := &oracleNode{name: t.Name}
			if len(stack) == 0 {
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.kids = append(parent.kids, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text += string(t)
			}
		}
	}
	if root == nil {
		return nil, errors.New("no document element")
	}
	return root, nil
}

func oracleEnvelopeBody(data []byte) (*oracleNode, error) {
	root, err := oracleParseTree(data)
	if err != nil {
		return nil, &DecodeError{Reason: "malformed envelope", Err: err}
	}
	if root.name.Local != "Envelope" {
		return nil, &DecodeError{Reason: fmt.Sprintf("document element %q is not an Envelope", root.name.Local)}
	}
	body := root.kid("Body")
	if body == nil || len(body.kids) == 0 {
		return nil, &DecodeError{Reason: "no payload", Err: ErrNoBody}
	}
	return body.kids[0], nil
}

func oracleMessageFromNode(n *oracleNode) (*Message, error) {
	m := &Message{
		Namespace: n.name.Space,
		Local:     n.name.Local,
		Fields:    make(map[string]string, len(n.kids)),
	}
	for _, k := range n.kids {
		if _, dup := m.Fields[k.name.Local]; dup {
			return nil, &DecodeError{Reason: fmt.Sprintf("duplicate payload element %q", k.name.Local)}
		}
		m.Fields[k.name.Local] = k.text
	}
	return m, nil
}

func oracleFlexible(data []byte) (*Message, error) {
	switch oracleDetect(data, "") {
	case Version11:
		return oracleUnmarshal11(data)
	case Version12:
		return oracleUnmarshal12(data)
	case VersionUnknown:
		return oracleUnmarshal11(data)
	}
	first, err := oracleEnvelopeBody(data)
	if err != nil {
		return nil, err
	}
	if first.name.Local == "Fault" &&
		(first.name.Space == NamespaceEnvelope || first.name.Space == NamespaceEnvelope12) {
		f := &Fault{}
		for _, k := range first.kids {
			switch k.name.Local {
			case "faultcode":
				f.Code = k.text
			case "faultstring":
				f.String = k.text
			case "faultactor", "Node":
				f.Actor = k.text
			case "detail", "Detail":
				f.Detail = k.text
			case "Code":
				if v := k.kid("Value"); v != nil {
					f.Code = v.text
				}
			case "Reason":
				if v := k.kid("Text"); v != nil {
					f.String = v.text
				}
			}
		}
		return nil, f
	}
	return oracleMessageFromNode(first)
}

func oracleCoerce(data []byte) (*Message, error) {
	first, err := oracleEnvelopeBody(data)
	if err != nil {
		return nil, err
	}
	if first.name.Local == "Fault" && first.kid("faultcode") != nil {
		f := &Fault{Code: first.kid("faultcode").text}
		if s := first.kid("faultstring"); s != nil {
			f.String = s.text
		}
		if a := first.kid("faultactor"); a != nil {
			f.Actor = a.text
		}
		if d := first.kid("detail"); d != nil {
			f.Detail = d.text
		}
		return nil, f
	}
	return oracleMessageFromNode(first)
}
