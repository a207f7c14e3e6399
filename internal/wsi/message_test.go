package wsi

import (
	"mime"
	"testing"

	"wsinterop/internal/soap"
)

const cleanEnvelope = `<?xml version="1.0"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body>
    <m:echo xmlns:m="http://svc.test/">
      <m:input>hello</m:input>
    </m:echo>
  </soap:Body>
</soap:Envelope>`

const cleanFault = `<?xml version="1.0"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body>
    <soap:Fault>
      <faultcode>soap:Client</faultcode>
      <faultstring>bad</faultstring>
    </soap:Fault>
  </soap:Body>
</soap:Envelope>`

const cleanEnvelope12 = `<?xml version="1.0"?>
<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">
  <env:Body>
    <m:echo xmlns:m="http://svc.test/">
      <m:input>hello</m:input>
    </m:echo>
  </env:Body>
</env:Envelope>`

const cleanFault12 = `<?xml version="1.0"?>
<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">
  <env:Body>
    <env:Fault>
      <env:Code><env:Value>env:Sender</env:Value></env:Code>
      <env:Reason><env:Text xml:lang="en">bad</env:Text></env:Reason>
    </env:Fault>
  </env:Body>
</env:Envelope>`

func cleanMeta() MessageMeta {
	return MessageMeta{ContentType: "text/xml; charset=utf-8", SOAPAction: `""`}
}

func cleanMeta12() MessageMeta {
	return MessageMeta{ContentType: "application/soap+xml; charset=utf-8"}
}

func TestCheckMessageClean(t *testing.T) {
	r := NewChecker().CheckMessage([]byte(cleanEnvelope), cleanMeta())
	if len(r.Violations) != 0 {
		t.Errorf("clean message has findings: %v", r.Violations)
	}
}

func TestCheckMessageWrongEnvelopeNamespace(t *testing.T) {
	bad := `<Envelope xmlns="urn:wrong"><Body/></Envelope>`
	r := NewChecker().CheckMessage([]byte(bad), cleanMeta())
	if !violated(r, AssertionMsgEnvelope.ID) {
		t.Errorf("expected RM9980, got %v", r.Violations)
	}
}

func TestCheckMessageMultipleBodyChildren(t *testing.T) {
	bad := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
	<soap:Body>
	  <a:x xmlns:a="urn:a"/><a:y xmlns:a="urn:a"/>
	</soap:Body></soap:Envelope>`
	r := NewChecker().CheckMessage([]byte(bad), cleanMeta())
	if !violated(r, AssertionMsgBodyChild.ID) {
		t.Errorf("expected RM1011, got %v", r.Violations)
	}
}

func TestCheckMessageUnqualifiedChild(t *testing.T) {
	bad := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
	<soap:Body><echo/></soap:Body></soap:Envelope>`
	r := NewChecker().CheckMessage([]byte(bad), cleanMeta())
	if !violated(r, AssertionMsgQualified.ID) {
		t.Errorf("expected RM1014, got %v", r.Violations)
	}
}

func TestCheckMessageContentType(t *testing.T) {
	meta := cleanMeta()
	meta.ContentType = "application/soap+xml" // SOAP 1.2's type: not BP 1.1
	r := NewChecker().CheckMessage([]byte(cleanEnvelope), meta)
	if !violated(r, AssertionMsgContentType.ID) {
		t.Errorf("expected RM1119, got %v", r.Violations)
	}
}

func TestCheckMessageSOAPActionQuoting(t *testing.T) {
	meta := cleanMeta()
	meta.SOAPAction = "http://unquoted/action"
	r := NewChecker().CheckMessage([]byte(cleanEnvelope), meta)
	if !violated(r, AssertionMsgSOAPAction.ID) {
		t.Errorf("expected RM1109, got %v", r.Violations)
	}
	meta.SOAPAction = `"http://quoted/action"`
	r = NewChecker().CheckMessage([]byte(cleanEnvelope), meta)
	if violated(r, AssertionMsgSOAPAction.ID) {
		t.Errorf("quoted SOAPAction should pass, got %v", r.Violations)
	}
}

func TestCheckMessageFaultShape(t *testing.T) {
	r := NewChecker().CheckMessage([]byte(cleanFault), MessageMeta{
		ContentType: "text/xml", HTTPStatus: 500,
	})
	if len(r.Violations) != 0 {
		t.Errorf("well-formed fault has findings: %v", r.Violations)
	}

	bad := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
	<soap:Body><soap:Fault><faultstring>x</faultstring></soap:Fault></soap:Body></soap:Envelope>`
	r = NewChecker().CheckMessage([]byte(bad), MessageMeta{ContentType: "text/xml", HTTPStatus: 500})
	if !violated(r, AssertionMsgFaultShape.ID) {
		t.Errorf("expected RM1004, got %v", r.Violations)
	}
}

func TestCheckMessageFaultStatus(t *testing.T) {
	r := NewChecker().CheckMessage([]byte(cleanFault), MessageMeta{
		ContentType: "text/xml", HTTPStatus: 200,
	})
	if !violated(r, AssertionMsgFaultStatus.ID) {
		t.Errorf("expected RM1126, got %v", r.Violations)
	}
}

func TestMessageAssertionIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range append(AllAssertions(), MessageAssertions()...) {
		if seen[a.ID] {
			t.Errorf("duplicate assertion ID %s", a.ID)
		}
		seen[a.ID] = true
	}
}

// TestCheckMessageCodecClean12: a clean 1.2 exchange passes the 1.2
// rules, and a clean 1.2 fault may ride HTTP 400 (the 1.2 binding's
// Sender status).
func TestCheckMessageCodecClean12(t *testing.T) {
	c := NewChecker()
	if r := checkMessageCodec(c, []byte(cleanEnvelope12), cleanMeta12(), soap.V12); len(r.Violations) != 0 {
		t.Errorf("clean 1.2 message has findings: %v", r.Violations)
	}
	meta := cleanMeta12()
	meta.HTTPStatus = 400
	if r := checkMessageCodec(c, []byte(cleanFault12), meta, soap.V12); len(r.Violations) != 0 {
		t.Errorf("clean 1.2 fault at 400 has findings: %v", r.Violations)
	}
}

// TestCheckMessageCodecHybrid: the guard flags a version mix that is
// invisible to each single-version rule set — a 1.1 envelope under
// 1.2 framing, and a 1.2-shaped fault inside a 1.1 envelope.
func TestCheckMessageCodecHybrid(t *testing.T) {
	c := NewChecker()
	r := checkMessageCodec(c, []byte(cleanEnvelope), cleanMeta12(), soap.V11)
	found := false
	for _, v := range r.Violations {
		if v.Assertion.ID == AssertionMsgVersionCoherent.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("hybrid framing not flagged under RMH001: %v", r.Violations)
	}
	hybrid := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
	<soap:Body><env:Fault xmlns:env="http://www.w3.org/2003/05/soap-envelope">
	<env:Code><env:Value>env:Sender</env:Value></env:Code>
	<env:Reason><env:Text>x</env:Text></env:Reason></env:Fault></soap:Body></soap:Envelope>`
	r = checkMessageCodec(c, []byte(hybrid), MessageMeta{ContentType: "text/xml", HTTPStatus: 500}, soap.V11)
	found = false
	for _, v := range r.Violations {
		if v.Assertion.ID == AssertionMsgVersionCoherent.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("hybrid fault not flagged under RMH001: %v", r.Violations)
	}
}

// echoEnvelope is a canonical echo message of codec c.
func echoEnvelope(tb testing.TB, c soap.Codec, local string) []byte {
	tb.Helper()
	raw, err := c.Marshal(&soap.Message{
		Namespace: "http://bench.test/", Local: local,
		Fields: map[string]string{"input": "payload", "count": "7"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestMessageCheckAllocs pins the message check's allocations on the
// echo exchange the communication campaign sniffs: the request and the
// response, each under its HTTP metadata. The encoding/xml walk took
// 55 on the response; the scanner takes 3, the report and the media
// type's parse among them.
func TestMessageCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := NewChecker()
	for _, tc := range []struct {
		name string
		raw  []byte
		meta MessageMeta
	}{
		{"request", echoEnvelope(t, soap.V11, "echo"), MessageMeta{ContentType: soap.ContentType, SOAPAction: `""`}},
		{"response", echoEnvelope(t, soap.V11, "echoResponse"), MessageMeta{ContentType: soap.ContentType, HTTPStatus: 200}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if r := c.CheckMessage(tc.raw, tc.meta); len(r.Violations) != 0 {
				t.Fatalf("clean %s has findings: %v", tc.name, r.Violations)
			}
		})
		if allocs > 6 {
			t.Errorf("CheckMessage of an echo %s: %.0f allocs, want <= 6", tc.name, allocs)
		}
		t.Logf("%s: %.0f allocs", tc.name, allocs)
	}
}

// TestCheckMessageTruncatedCapture: a message the capture cut off is
// reported as truncated even when the kept prefix parses cleanly.
func TestCheckMessageTruncatedCapture(t *testing.T) {
	meta := cleanMeta()
	meta.Truncated = true
	r := NewChecker().CheckMessage([]byte(cleanEnvelope), meta)
	if len(r.Violations) != 1 || r.Violations[0].Assertion.ID != AssertionMsgEnvelope.ID {
		t.Errorf("truncated capture: want one RM9980 finding, got %v", r.Violations)
	}
}

// TestMediaTypeMatchesMIME holds the checker's media-type fast path
// to mime.ParseMediaType: for every Content-Type the codecs, the fault
// injector and the version wire emit, and for malformed values, the
// media type and the error state agree.
func TestMediaTypeMatchesMIME(t *testing.T) {
	values := []string{
		soap.ContentType, soap.ContentType12, soap.V11.ContentType("urn:op"), soap.V12.ContentType("urn:op"),
		// faultinject: the HTML error page and the wrong content type;
		// http.Error pages; net/http's sniffed types.
		"text/html; charset=utf-8", "application/octet-stream", "text/plain; charset=utf-8",
		"text/xml", "application/soap+xml",
		// Malformed or unusual spellings.
		"", ";", "text/", "/xml", "text/xml;", "text/xml; charset", `text/xml; charset="utf-8`,
		"text/xml charset=utf-8", "TEXT/XML; CHARSET=UTF-8", " text/xml; charset=utf-8",
		"text/xml; charset=utf-8 ", "text/xml;charset=utf-8", `application/soap+xml; action="unterminated`,
		"application/soap+xml; charset=utf-8; charset=utf-8",
	}
	for _, ct := range values {
		mt, ok := mediaType(ct)
		want, _, err := mime.ParseMediaType(ct)
		if ok != (err == nil) || (ok && mt != want) {
			t.Errorf("mediaType(%q) = %q, %v; mime.ParseMediaType = %q, %v", ct, mt, ok, want, err)
		}
	}
}

// checkMessageCodec validates one captured message against the
// messaging rules of the given envelope version regardless of the
// checker's profile, always including the hybrid version-coherence
// guard: a message mixing 1.1 and 1.2 signals is flagged under RMH001
// even when each signal would be valid alone.
func checkMessageCodec(c *Checker, raw []byte, meta MessageMeta, codec soap.Codec) *Report {
	rules := v11MsgRules
	if codec.Version() == soap.Version12 {
		rules = v12MsgRules
	}
	rules.versionGuard = true
	return c.checkMessageRules(raw, meta, rules)
}
