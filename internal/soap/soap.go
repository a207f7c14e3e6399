// Package soap implements SOAP envelope codecs: building, serializing
// and parsing the request/response messages that client and server
// framework subsystems exchange during the Communication and
// Execution steps of the inter-operation lifecycle.
//
// The paper scopes those two steps out and announces them as future
// work; this package, together with internal/transport, implements
// that extension so clean (error-free) framework combinations can be
// driven end to end. The version-parameterized Codec API (codec.go)
// extends it further into the hybrid-version error class the paper
// never reached.
//
// Every reader works from one token walk: Scan (scan.go) records, on
// the internal/xmltok scanner with encoding/xml as its fallback, the
// version signals, a small element tree and where the stream broke off,
// and Detect, the strict codecs and the lenient parsers read that, so a
// message that is classified and then parsed is tokenized once.
package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"sync"
	"unicode"
)

// envelopeBufs recycles envelope serialization buffers across Marshal
// and MarshalFault calls — the same pattern as wsdl.Marshal, since the
// communication and fault-injection campaigns serialize one envelope
// pair per exchange.
var envelopeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Namespace constants for SOAP 1.1.
const (
	// NamespaceEnvelope is the SOAP 1.1 envelope namespace.
	NamespaceEnvelope = "http://schemas.xmlsoap.org/soap/envelope/"
	// ContentType is the SOAP 1.1 HTTP content type.
	ContentType = "text/xml; charset=utf-8"
)

// Message is one SOAP body payload: a single document/literal wrapper
// element with simple-content children, which is exactly the message
// shape the study's echo services exchange.
type Message struct {
	// Namespace is the wrapper element's namespace (the service's
	// target namespace).
	Namespace string
	// Local is the wrapper element's local name (the operation name,
	// or operation name + "Response").
	Local string
	// Fields holds the child element values by local name.
	Fields map[string]string
}

// Field returns the named child value.
func (m *Message) Field(name string) (string, bool) {
	v, ok := m.Fields[name]
	return v, ok
}

// Fault is a SOAP fault in version-neutral form: the 1.1 field names,
// onto which the 1.2 Code/Value, Reason/Text, Node and Detail
// structure is mapped by the V12 codec.
type Fault struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
	Actor  string `xml:"faultactor,omitempty"`
	Detail string `xml:"detail,omitempty"`
}

// Error implements the error interface so transport code can return
// faults directly.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// Fault codes defined by SOAP 1.1.
const (
	FaultClient = "soap:Client"
	FaultServer = "soap:Server"
)

// ErrNoBody is wrapped by DecodeError when an envelope carries
// neither a payload nor a fault.
var ErrNoBody = errors.New("envelope body is empty")

// DecodeError reports a malformed SOAP message.
type DecodeError struct {
	Reason string
	// Version carries the detected envelope version when the message
	// was rejected for version reasons (a 1.2 envelope handed to the
	// 1.1 codec, hybrid machinery inside a payload); VersionUnknown
	// otherwise.
	Version Version
	Err     error
}

// Error implements the error interface.
func (e *DecodeError) Error() string {
	if e.Err != nil {
		return "soap decode: " + e.Reason + ": " + e.Err.Error()
	}
	return "soap decode: " + e.Reason
}

// Unwrap exposes the wrapped cause.
func (e *DecodeError) Unwrap() error { return e.Err }

// ValidNCName reports whether s can be used as an XML element name:
// a non-colonized name starting with a letter or underscore. Marshal
// refuses names that fail this check — interpolating them into markup
// would emit a malformed (or, worse, differently-structured) envelope.
func ValidNCName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || unicode.IsLetter(r) {
			continue
		}
		if i > 0 && (r == '-' || r == '.' || unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}

// writeElement writes one single-line element of the envelope
// layout: indent, <prefix+local>, the escaped value, the end tag and a
// newline.
func writeElement(buf *bytes.Buffer, indent, prefix, local, value string) {
	buf.WriteString(indent)
	buf.WriteByte('<')
	buf.WriteString(prefix)
	buf.WriteString(local)
	buf.WriteByte('>')
	writeEscaped(buf, value)
	buf.WriteString("</")
	buf.WriteString(prefix)
	buf.WriteString(local)
	buf.WriteString(">\n")
}

// writeEscaped writes s as XML character data, exactly as
// xml.EscapeText does. Printable ASCII without markup characters,
// which is every value the echo campaigns send, is written as is.
func writeEscaped(buf *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\'' || c == '&' || c == '<' || c == '>' {
			_ = xml.EscapeText(buf, []byte(s))
			return
		}
	}
	buf.WriteString(s)
}
