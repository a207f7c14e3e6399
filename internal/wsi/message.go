package wsi

import (
	"encoding/xml"
	"fmt"
	"io"
	"mime"
	"strings"

	"wsinterop/internal/soap"
	"wsinterop/internal/xmltok"
)

// This file implements message-level conformance checking: validating
// the SOAP messages actually exchanged on the wire, independently of
// the description-level assertions. The paper's related work (§II,
// Ramsokul & Sowmya) proposes exactly this sniffer-based runtime
// checking; here it complements the static three-step study and plugs
// into the transport layer (transport.Sniffer) during the
// Communication/Execution extension.
//
// The checker deliberately re-parses raw bytes with its own XML walk
// rather than reusing internal/soap: a conformance checker that
// shares the implementation under test would inherit its blind spots.
// The soap import supplies only version identity (namespace and media
// type constants via the Codec), never a parser. The walk shares only
// the tokenizer with soap.Scan, as it shared encoding/xml before:
// internal/xmltok, which declines anything outside its subset to
// encoding/xml and is pinned to it by differential fuzzing.

// Message-level assertions (BP 1.1 messaging requirements, RM-prefixed
// to distinguish them from the description-level R-assertions).
var (
	AssertionMsgEnvelope = Assertion{
		ID:          "RM9980",
		Description: "a MESSAGE must be serialized as a soap:Envelope in the SOAP 1.1 namespace",
	}
	AssertionMsgBodyChild = Assertion{
		ID:          "RM1011",
		Description: "a MESSAGE body must contain at most one child element",
	}
	AssertionMsgQualified = Assertion{
		ID:          "RM1014",
		Description: "children of soap:Body must be namespace-qualified",
	}
	AssertionMsgContentType = Assertion{
		ID:          "RM1119",
		Description: "a MESSAGE must be sent with a text/xml content type",
	}
	AssertionMsgSOAPAction = Assertion{
		ID:          "RM1109",
		Description: "the SOAPAction HTTP header value must be a quoted string",
	}
	AssertionMsgFaultShape = Assertion{
		ID:          "RM1004",
		Description: "a soap:Fault must carry faultcode and faultstring children",
	}
	AssertionMsgFaultStatus = Assertion{
		ID:          "RM1126",
		Description: "an HTTP response carrying a soap:Fault must use status 500",
	}
)

// Message-level assertions for the SOAP 1.2 binding and the hybrid
// guard (the bp20 profile's messaging rules).
var (
	AssertionMsgEnvelope12 = Assertion{
		ID:          "RM9981",
		Description: "a MESSAGE must be serialized as an env:Envelope in the SOAP 1.2 namespace",
	}
	AssertionMsgContentType12 = Assertion{
		ID:          "RM1130",
		Description: "a MESSAGE must be sent with an application/soap+xml content type",
	}
	AssertionMsgFaultShape12 = Assertion{
		ID:          "RM1005",
		Description: "an env:Fault must carry env:Code and env:Reason children",
	}
	AssertionMsgFaultStatus12 = Assertion{
		ID:          "RM1127",
		Description: "an HTTP response carrying an env:Fault must use status 400 or 500",
	}
	AssertionMsgVersionCoherent = Assertion{
		ID:          "RMH001",
		Description: "a MESSAGE must not mix SOAP 1.1 and SOAP 1.2 version signals (envelope namespace, media type, fault shape)",
	}
)

// MessageAssertions lists the SOAP 1.1 message-level assertion set.
func MessageAssertions() []Assertion {
	return []Assertion{
		AssertionMsgEnvelope, AssertionMsgBodyChild, AssertionMsgQualified,
		AssertionMsgContentType, AssertionMsgSOAPAction,
		AssertionMsgFaultShape, AssertionMsgFaultStatus,
	}
}

// MessageAssertions12 lists the SOAP 1.2 / hybrid-guard message-level
// assertion set.
func MessageAssertions12() []Assertion {
	return []Assertion{
		AssertionMsgEnvelope12, AssertionMsgBodyChild, AssertionMsgQualified,
		AssertionMsgContentType12,
		AssertionMsgFaultShape12, AssertionMsgFaultStatus12,
		AssertionMsgVersionCoherent,
	}
}

// MessageMeta carries the HTTP-level context of one captured message.
type MessageMeta struct {
	// ContentType is the Content-Type header value.
	ContentType string
	// SOAPAction is the raw SOAPAction header (requests only; empty
	// means absent, which is acceptable for responses).
	SOAPAction string
	// HTTPStatus is the response status (0 for requests).
	HTTPStatus int
	// Truncated marks a message the capture cut off at its read
	// budget: raw is only its first bytes.
	Truncated bool
}

const (
	soapEnvelopeNS   = "http://schemas.xmlsoap.org/soap/envelope/"
	soapEnvelopeNS12 = "http://www.w3.org/2003/05/soap-envelope"
)

// msgRules parameterizes the message walk by envelope version: which
// namespace and media type the envelope must use, which fault shape
// is canonical, and whether to flag mixed version signals (the bp20
// hybrid guard).
type msgRules struct {
	envNS        string
	envAssert    Assertion // envelope-namespace assertion for this version
	mediaType    string
	ctAssert     Assertion // content-type assertion for this version
	fault12      bool      // expect env:Code/env:Reason instead of faultcode/faultstring
	versionGuard bool      // flag mixed 1.1/1.2 signals (RMH001)
}

var v11MsgRules = msgRules{
	envNS:     soapEnvelopeNS,
	envAssert: AssertionMsgEnvelope,
	mediaType: "text/xml",
	ctAssert:  AssertionMsgContentType,
}

var v12MsgRules = msgRules{
	envNS:     soapEnvelopeNS12,
	envAssert: AssertionMsgEnvelope12,
	mediaType: "application/soap+xml",
	ctAssert:  AssertionMsgContentType12,
	fault12:   true,
}

// CheckMessage validates one captured SOAP message against the
// checker's profile: its message-version rules (SOAP 1.1 unless the
// profile binds messaging to 1.2, as bp20 does) and, when the profile
// requests it, the RMH001 hybrid guard.
func (c *Checker) CheckMessage(raw []byte, meta MessageMeta) *Report {
	rules := v11MsgRules
	if c.profile != nil {
		if c.profile.messageVersion == soap.Version12 {
			rules = v12MsgRules
		}
		rules.versionGuard = c.profile.versionGuard
	}
	return c.checkMessageRules(raw, meta, rules)
}

// checkMessageRules runs the message walk on the xmltok scanner; a
// message the scanner declines is checked again from byte 0 on
// encoding/xml, so every report and error text is encoding/xml's.
func (c *Checker) checkMessageRules(raw []byte, meta MessageMeta, rules msgRules) *Report {
	return xmltok.Walk(raw, func(src xmltok.Stream) *Report {
		return c.checkTokens(src, raw, meta, rules)
	})
}

// checkTokens is the one message walk, over either token source.
func (c *Checker) checkTokens(src xmltok.Stream, raw []byte, meta MessageMeta, rules msgRules) *Report {
	r := &Report{}
	ctVersion := c.checkTransportMeta(meta, rules, r)

	depth := 0
	sawRoot := false
	var rootName xml.Name
	inBody := false
	bodyDepth := 0
	bodyChildren := 0
	isFault := false
	faultNS := ""
	var faultFields map[string]bool
	var tokenErr error

	for {
		t, ok := src.Next()
		if !ok {
			if err := src.Err(); err != io.EOF {
				tokenErr = err
			}
			break
		}
		switch t.Kind {
		case xmltok.StartElement:
			depth++
			switch {
			case depth == 1:
				sawRoot = true
				rootName = t.Name
				if t.Name.Local != "Envelope" || t.Name.Space != rules.envNS {
					r.add(rules.envAssert,
						"root element is {%s}%s", t.Name.Space, t.Name.Local)
				}
			case depth == 2 && t.Name.Local == "Body" &&
				(t.Name.Space == rules.envNS || (rules.versionGuard && isEnvelopeNS(t.Name.Space))):
				inBody = true
				bodyDepth = depth
			case inBody && depth == bodyDepth+1:
				bodyChildren++
				if t.Name.Space == "" {
					r.add(AssertionMsgQualified,
						"body child %q is unqualified", t.Name.Local)
				}
				if t.Name.Local == "Fault" &&
					(t.Name.Space == rules.envNS || (rules.versionGuard && isEnvelopeNS(t.Name.Space))) {
					isFault = true
					faultNS = t.Name.Space
					faultFields = make(map[string]bool, 2)
				}
			case isFault && depth == bodyDepth+2:
				faultFields[t.Name.Local] = true
			}
		case xmltok.EndElement:
			if inBody && depth == bodyDepth {
				inBody = false
			}
			depth--
		}
	}

	// A payload that never yields a root element is not a soap:Envelope
	// at all — empty bodies, non-XML garbage and truncated-before-root
	// documents must not pass RM9980 by breaking out of the token loop
	// early. A payload whose root parsed but whose XML then broke off
	// is counted as truncated, as is one the capture cut off, whatever
	// its prefix parses to.
	switch {
	case meta.Truncated:
		r.add(rules.envAssert, "message truncated at the %d-byte capture budget", len(raw))
	case !sawRoot && len(raw) == 0:
		r.add(rules.envAssert, "message payload is empty")
	case !sawRoot && tokenErr != nil:
		r.add(rules.envAssert, "no root element parses in %d bytes: %v", len(raw), tokenErr)
	case !sawRoot:
		r.add(rules.envAssert, "no root element in %d bytes of payload", len(raw))
	case tokenErr != nil:
		r.add(rules.envAssert, "message truncated after %d bytes: %v", len(raw), tokenErr)
	}

	if bodyChildren > 1 {
		r.add(AssertionMsgBodyChild, "body has %d children", bodyChildren)
	}
	if isFault {
		if rules.fault12 {
			if !faultFields["Code"] || !faultFields["Reason"] {
				r.add(AssertionMsgFaultShape12, "fault lacks env:Code and/or env:Reason")
			}
			if meta.HTTPStatus != 0 && meta.HTTPStatus != 400 && meta.HTTPStatus != 500 {
				r.add(AssertionMsgFaultStatus12, "fault returned with HTTP %d", meta.HTTPStatus)
			}
		} else {
			if !faultFields["faultcode"] || !faultFields["faultstring"] {
				r.add(AssertionMsgFaultShape, "fault lacks faultcode and/or faultstring")
			}
			if meta.HTTPStatus != 0 && meta.HTTPStatus != 500 {
				r.add(AssertionMsgFaultStatus, "fault returned with HTTP %d", meta.HTTPStatus)
			}
		}
	}

	if rules.versionGuard {
		c.checkVersionCoherence(rootName, ctVersion, faultNS, faultFields, r)
	}
	return r
}

// isEnvelopeNS reports whether ns is either SOAP envelope namespace.
func isEnvelopeNS(ns string) bool {
	return ns == soapEnvelopeNS || ns == soapEnvelopeNS12
}

// checkVersionCoherence applies the hybrid guard: each version signal
// (envelope namespace, media type, fault element namespace, fault
// child shape) votes 1.1 or 1.2; ballots for both raise RMH001. The
// signal collection deliberately mirrors soap.Detect without calling
// it — see the package comment on checker independence.
func (c *Checker) checkVersionCoherence(root xml.Name, ctVersion int, faultNS string, faultFields map[string]bool, r *Report) {
	var sees11, sees12 bool
	vote := func(ns string) {
		switch ns {
		case soapEnvelopeNS:
			sees11 = true
		case soapEnvelopeNS12:
			sees12 = true
		}
	}
	if root.Local == "Envelope" {
		vote(root.Space)
	}
	vote(faultNS)
	switch ctVersion {
	case 1:
		sees11 = true
	case 2:
		sees12 = true
	}
	if faultFields["faultcode"] || faultFields["faultstring"] {
		sees11 = true
	}
	if faultFields["Code"] || faultFields["Reason"] {
		sees12 = true
	}
	if sees11 && sees12 {
		r.add(AssertionMsgVersionCoherent, "message mixes SOAP 1.1 and SOAP 1.2 version signals")
	}
}

// checkTransportMeta validates the HTTP framing and returns the media
// type's version vote (0 neutral, 1 for text/xml, 2 for
// application/soap+xml) for the hybrid guard.
func (c *Checker) checkTransportMeta(meta MessageMeta, rules msgRules, r *Report) int {
	ctVersion := 0
	if meta.ContentType != "" {
		mt, ok := mediaType(meta.ContentType)
		if !ok || mt != rules.mediaType {
			r.add(rules.ctAssert, "content type %q", meta.ContentType)
		}
		if ok {
			switch mt {
			case "text/xml":
				ctVersion = 1
			case "application/soap+xml":
				ctVersion = 2
			}
		}
	}
	if meta.SOAPAction != "" {
		v := meta.SOAPAction
		if !strings.HasPrefix(v, `"`) || !strings.HasSuffix(v, `"`) || len(v) < 2 {
			r.add(AssertionMsgSOAPAction, "SOAPAction %s is not quoted", fmt.Sprintf("%q", v))
		}
	}
	return ctVersion
}

// mediaType returns the media type of a Content-Type value and whether
// it parses. The exact values the SOAP codecs write resolve without a
// parse, every other value through mime.ParseMediaType. The switch is
// the checker's own, not soap's: only the constants are shared.
func mediaType(contentType string) (string, bool) {
	switch contentType {
	case soap.ContentType:
		return "text/xml", true
	case soap.ContentType12:
		return "application/soap+xml", true
	}
	mt, _, err := mime.ParseMediaType(contentType)
	return mt, err == nil
}
