// Codec API: the version-parameterized envelope layer.
//
// The paper's campaign only ever exercised SOAP 1.1, but the dominant
// real-world interoperability failure today is *version-hybrid*
// traffic — 1.1 envelopes carrying 1.2-era framing or fault shapes
// (the Digikoppeling WUS incident that forced a patched CXF). This
// file makes the envelope version a first-class parameter: a Codec
// interface with V11 and V12 implementations, a Detect classifier
// that labels raw bytes v11/v12/hybrid/unknown, and two deliberately
// less-strict readers (Scanned.Flexible, Scanned.Coerce in scan.go)
// that model how lenient and namespace-blind frameworks consume such
// traffic.
package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"mime"
	"sort"
	"strconv"
)

// NamespaceEnvelope12 is the SOAP 1.2 envelope namespace.
const NamespaceEnvelope12 = "http://www.w3.org/2003/05/soap-envelope"

// ContentType12 is the SOAP 1.2 HTTP media type (without the action
// parameter; Codec.ContentType renders the full header value).
const ContentType12 = "application/soap+xml; charset=utf-8"

// Fault codes beyond the basic client/server pair.
const (
	// FaultVersionMismatch is the SOAP 1.1 VersionMismatch fault code,
	// raised when a node receives an envelope in a namespace it does
	// not speak.
	FaultVersionMismatch = "soap:VersionMismatch"
	// Fault12Sender, Fault12Receiver and Fault12VersionMismatch are the
	// SOAP 1.2 equivalents of the 1.1 Client/Server/VersionMismatch
	// codes (env:Code/env:Value values).
	Fault12Sender          = "env:Sender"
	Fault12Receiver        = "env:Receiver"
	Fault12VersionMismatch = "env:VersionMismatch"
)

// Version identifies the SOAP envelope version of a message, as
// labeled by Detect or required by a Codec.
type Version int

const (
	// VersionUnknown: not recognizably a SOAP envelope.
	VersionUnknown Version = iota
	// Version11: coherent SOAP 1.1 signals only.
	Version11
	// Version12: coherent SOAP 1.2 signals only.
	Version12
	// VersionHybrid: signals from both versions in one message — the
	// traffic class mainstream frameworks disagree on the hardest.
	VersionHybrid
)

// String renders the version label used in reports and fingerprints.
func (v Version) String() string {
	switch v {
	case Version11:
		return "v11"
	case Version12:
		return "v12"
	case VersionHybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// Strictness models how a framework treats traffic whose envelope
// version disagrees with the version it was configured to speak. The
// three levels are sourced from the real stacks' documented behavior;
// internal/framework declares one per model.
type Strictness int

const (
	// StrictReject refuses mismatched traffic with a typed error or a
	// VersionMismatch fault (JAX-WS/Metro, CXF, WCF, gSOAP).
	StrictReject Strictness = iota
	// LenientAccept auto-detects the version per message and processes
	// either, answering in its own configured version (Axis 1.x/2,
	// PHP ext/soap).
	LenientAccept
	// SilentCoerce parses namespace-blind and presses on regardless
	// (ASMX-era .NET clients, suds) — the behavior class that turns
	// hybrid traffic into silent mishandling.
	SilentCoerce
)

// String renders the strictness label used in reports and
// fingerprints.
func (s Strictness) String() string {
	switch s {
	case LenientAccept:
		return "lenient-accept"
	case SilentCoerce:
		return "silent-coerce"
	default:
		return "strict-reject"
	}
}

// Codec serializes and parses one SOAP envelope version. The two
// implementations, V11 and V12, are stateless and safe for concurrent
// use.
type Codec interface {
	// Version labels the codec.
	Version() Version
	// Namespace is the envelope namespace the codec emits and requires.
	Namespace() string
	// ContentType renders the HTTP Content-Type header value for a
	// message carrying the given action. SOAP 1.1 ignores the action
	// (it rides in the SOAPAction header); SOAP 1.2 embeds it as the
	// media-type action parameter.
	ContentType(action string) string
	// UsesActionHeader reports whether the binding carries the action
	// in a SOAPAction HTTP header (1.1) or inside Content-Type (1.2).
	UsesActionHeader() bool
	// FaultCode maps the canonical 1.1 fault vocabulary (soap:Client,
	// soap:Server, soap:VersionMismatch) onto this version's codes.
	// Unrecognized values pass through unchanged.
	FaultCode(code string) string
	// EnvelopeClose is the serialized envelope closing tag, for wire
	// middleware that splices content ahead of it.
	EnvelopeClose() string
	// Marshal serializes a message into an envelope of this version.
	Marshal(m *Message) ([]byte, error)
	// MarshalFault serializes a fault envelope of this version.
	MarshalFault(f *Fault) ([]byte, error)
	// Unmarshal strictly parses an envelope of this version. Content in
	// the other version's namespace — or hybrid content mixing the two
	// — is rejected with a version-labeled *DecodeError. A well-formed
	// fault is returned as a *Fault error.
	Unmarshal(data []byte) (*Message, error)
	// UnmarshalScanned is Unmarshal over an already scanned message,
	// for callers that also Detect it: the message is walked once.
	UnmarshalScanned(s *Scanned) (*Message, error)
}

// V11 and V12 are the two codec implementations.
var (
	V11 Codec = v11Codec{}
	V12 Codec = v12Codec{}
)

// CodecFor maps a pure version label to its codec. Hybrid and unknown
// have no codec: nothing can faithfully emit them.
func CodecFor(v Version) (Codec, bool) {
	switch v {
	case Version11:
		return V11, true
	case Version12:
		return V12, true
	default:
		return nil, false
	}
}

// marshalMessage is the shared envelope writer; prefix/ns select the
// version. The 1.1 output is byte-identical to the historical
// package-level Marshal. Children are written in sorted field order
// so output is deterministic, and every name must be a valid NCName:
// values are escaped, but names are structural markup and cannot be.
func marshalMessage(prefix, ns string, m *Message) ([]byte, error) {
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
	buf := envelopeBufs.Get().(*bytes.Buffer)
	defer envelopeBufs.Put(buf)
	buf.Reset()
	buf.WriteString(xml.Header)
	buf.WriteByte('<')
	buf.WriteString(prefix)
	buf.WriteString(":Envelope xmlns:")
	buf.WriteString(prefix)
	buf.WriteString(`="`)
	buf.WriteString(ns)
	buf.WriteString("\">\n  <")
	buf.WriteString(prefix)
	buf.WriteString(":Body>\n    <m:")
	buf.WriteString(m.Local)
	buf.WriteString(" xmlns:m=")
	buf.Write(strconv.AppendQuote(buf.AvailableBuffer(), m.Namespace))
	buf.WriteString(">\n")

	var stack [8]string
	names := stack[:0]
	for k := range m.Fields {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		writeElement(buf, "      ", "m:", name, m.Fields[name])
	}

	buf.WriteString("    </m:")
	buf.WriteString(m.Local)
	buf.WriteString(">\n  </")
	buf.WriteString(prefix)
	buf.WriteString(":Body>\n</")
	buf.WriteString(prefix)
	buf.WriteString(":Envelope>\n")
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// v11Codec implements the SOAP 1.1 binding: schemas.xmlsoap.org
// envelope, text/xml + SOAPAction framing, faultcode/faultstring
// faults.
type v11Codec struct{}

func (v11Codec) Version() Version          { return Version11 }
func (v11Codec) Namespace() string         { return NamespaceEnvelope }
func (v11Codec) ContentType(string) string { return ContentType }
func (v11Codec) UsesActionHeader() bool    { return true }
func (v11Codec) FaultCode(code string) string {
	return code
}
func (v11Codec) EnvelopeClose() string { return "</soap:Envelope>" }

func (v11Codec) Marshal(m *Message) ([]byte, error) {
	return marshalMessage("soap", NamespaceEnvelope, m)
}

func (v11Codec) MarshalFault(f *Fault) ([]byte, error) {
	buf := envelopeBufs.Get().(*bytes.Buffer)
	defer envelopeBufs.Put(buf)
	buf.Reset()
	buf.WriteString(xml.Header)
	buf.WriteString(`<soap:Envelope xmlns:soap="` + NamespaceEnvelope + `">` + "\n")
	buf.WriteString("  <soap:Body>\n")
	buf.WriteString("    <soap:Fault>\n")
	writeElement(buf, "      ", "", "faultcode", f.Code)
	writeElement(buf, "      ", "", "faultstring", f.String)
	if f.Actor != "" {
		writeElement(buf, "      ", "", "faultactor", f.Actor)
	}
	if f.Detail != "" {
		writeElement(buf, "      ", "", "detail", f.Detail)
	}
	buf.WriteString("    </soap:Fault>\n")
	buf.WriteString("  </soap:Body>\n")
	buf.WriteString("</soap:Envelope>\n")
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

func (v11Codec) Unmarshal(data []byte) (*Message, error) {
	return Scan(data).strict(Version11)
}

func (v11Codec) UnmarshalScanned(s *Scanned) (*Message, error) {
	return s.strict(Version11)
}

// v12Codec implements the SOAP 1.2 binding: the 2003/05 envelope,
// application/soap+xml with an action media-type parameter, and
// env:Code/env:Reason faults.
type v12Codec struct{}

func (v12Codec) Version() Version  { return Version12 }
func (v12Codec) Namespace() string { return NamespaceEnvelope12 }
func (v12Codec) ContentType(action string) string {
	if action == "" {
		return ContentType12
	}
	return ContentType12 + "; action=" + strconv.Quote(action)
}
func (v12Codec) UsesActionHeader() bool { return false }
func (v12Codec) FaultCode(code string) string {
	switch code {
	case FaultClient:
		return Fault12Sender
	case FaultServer:
		return Fault12Receiver
	case FaultVersionMismatch:
		return Fault12VersionMismatch
	}
	return code
}
func (v12Codec) EnvelopeClose() string { return "</env:Envelope>" }

func (v12Codec) Marshal(m *Message) ([]byte, error) {
	return marshalMessage("env", NamespaceEnvelope12, m)
}

func (v12Codec) MarshalFault(f *Fault) ([]byte, error) {
	buf := envelopeBufs.Get().(*bytes.Buffer)
	defer envelopeBufs.Put(buf)
	buf.Reset()
	buf.WriteString(xml.Header)
	buf.WriteString(`<env:Envelope xmlns:env="` + NamespaceEnvelope12 + `">` + "\n")
	buf.WriteString("  <env:Body>\n")
	buf.WriteString("    <env:Fault>\n")
	buf.WriteString("      <env:Code>\n")
	writeElement(buf, "        ", "env:", "Value", f.Code)
	buf.WriteString("      </env:Code>\n")
	buf.WriteString("      <env:Reason>\n")
	buf.WriteString(`        <env:Text xml:lang="en">`)
	writeEscaped(buf, f.String)
	buf.WriteString("</env:Text>\n")
	buf.WriteString("      </env:Reason>\n")
	if f.Actor != "" {
		writeElement(buf, "      ", "env:", "Node", f.Actor)
	}
	if f.Detail != "" {
		writeElement(buf, "      ", "env:", "Detail", f.Detail)
	}
	buf.WriteString("    </env:Fault>\n")
	buf.WriteString("  </env:Body>\n")
	buf.WriteString("</env:Envelope>\n")
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

func (v12Codec) Unmarshal(data []byte) (*Message, error) {
	return Scan(data).strict(Version12)
}

func (v12Codec) UnmarshalScanned(s *Scanned) (*Message, error) {
	return s.strict(Version12)
}

// Detect classifies raw bytes (and, when available, the HTTP
// Content-Type they arrived under) as SOAP 1.1, SOAP 1.2, a hybrid of
// both, or not recognizably SOAP. The signals, each independently
// version-marking:
//
//   - envelope namespace (schemas.xmlsoap.org vs 2003/05)
//   - media type (text/xml vs application/soap+xml; others neutral)
//   - fault shape (faultcode/faultstring vs env:Code/env:Reason, and
//     the Fault element's own namespace)
//
// A message whose signals agree is labeled with that version; mixed
// signals are VersionHybrid; a root that is not an Envelope in either
// namespace is VersionUnknown. Pass contentType "" to classify bytes
// alone.
func Detect(data []byte, contentType string) Version {
	return Scan(data).Detect(contentType)
}

// verdict weighs the collected signals and the media type.
func (sig *versionSignals) verdict(contentType string) Version {
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
		if mt, ok := mediaType(contentType); ok {
			switch mt {
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

// mediaType returns the media type of a Content-Type value and whether
// it parses. The values the codecs write resolve without a parse; every
// other value goes through mime.ParseMediaType.
func mediaType(contentType string) (string, bool) {
	switch contentType {
	case ContentType:
		return "text/xml", true
	case ContentType12:
		return "application/soap+xml", true
	}
	mt, _, err := mime.ParseMediaType(contentType)
	return mt, err == nil
}
