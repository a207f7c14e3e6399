package soap

import (
	"errors"
	"mime"
	"strings"
	"testing"
)

const (
	sample12Envelope = `<?xml version="1.0" encoding="UTF-8"?>
<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">
  <env:Body>
    <m:echoString xmlns:m="urn:example">
      <m:input>hello</m:input>
    </m:echoString>
  </env:Body>
</env:Envelope>
`
	// A SOAP 1.1 envelope carrying a SOAP 1.2-namespace fault: the
	// Digikoppeling-style hybrid the version matrix measures.
	hybridFaultEnvelope = `<?xml version="1.0" encoding="UTF-8"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body>
    <env:Fault xmlns:env="http://www.w3.org/2003/05/soap-envelope">
      <env:Code><env:Value>env:Sender</env:Value></env:Code>
      <env:Reason><env:Text xml:lang="en">boom</env:Text></env:Reason>
    </env:Fault>
  </soap:Body>
</soap:Envelope>
`
	// A 1.1-namespace Fault element whose children use the 1.2
	// Code/Reason shape — the other hybrid fault variant.
	hybridShapeEnvelope = `<?xml version="1.0" encoding="UTF-8"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body>
    <soap:Fault>
      <soap:Code><soap:Value>env:Receiver</soap:Value></soap:Code>
      <soap:Reason><soap:Text>kaput</soap:Text></soap:Reason>
    </soap:Fault>
  </soap:Body>
</soap:Envelope>
`
)

// TestUnmarshalRejectsForeignEnvelopeNamespace is the regression test
// for the silent-mishandle bug in the historical parser: a SOAP 1.2
// envelope (or 1.2 machinery inside a 1.1 envelope) must surface as a
// typed, version-labeled DecodeError, never as data.
func TestUnmarshalRejectsForeignEnvelopeNamespace(t *testing.T) {
	cases := []struct {
		name string
		data string
		want Version
	}{
		{"v12 envelope to v11 codec", sample12Envelope, Version12},
		{"v12 fault inside v11 envelope", hybridFaultEnvelope, VersionHybrid},
		{"v12 fault shape in v11 namespace", hybridShapeEnvelope, VersionHybrid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := V11.Unmarshal([]byte(tc.data))
			if err == nil {
				t.Fatalf("Unmarshal accepted foreign-version content as message %+v", m)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error is %T (%v), want *DecodeError", err, err)
			}
			if de.Version != tc.want {
				t.Fatalf("DecodeError.Version = %v, want %v", de.Version, tc.want)
			}
		})
	}
}

func TestV12RoundTrip(t *testing.T) {
	msg := testMessage()
	data, err := V12.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), NamespaceEnvelope12) {
		t.Fatalf("1.2 envelope missing its namespace:\n%s", data)
	}
	got, err := V12.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Local != msg.Local || got.Namespace != msg.Namespace {
		t.Fatalf("round trip wrapper mismatch: %+v", got)
	}
	for k, v := range msg.Fields {
		if got.Fields[k] != v {
			t.Fatalf("field %q = %q, want %q", k, got.Fields[k], v)
		}
	}
}

func TestV12FaultRoundTrip(t *testing.T) {
	f := &Fault{Code: Fault12Sender, String: "bad request", Actor: "urn:node", Detail: "d"}
	data, err := V12.MarshalFault(f)
	if err != nil {
		t.Fatal(err)
	}
	_, err = V12.Unmarshal(data)
	var got *Fault
	if !errors.As(err, &got) {
		t.Fatalf("error is %T (%v), want *Fault", err, err)
	}
	if *got != *f {
		t.Fatalf("fault round trip = %+v, want %+v", got, f)
	}
}

func TestCodecsRejectEachOther(t *testing.T) {
	data11, err := V11.Marshal(testMessage())
	if err != nil {
		t.Fatal(err)
	}
	_, err = V12.Unmarshal(data11)
	var de *DecodeError
	if !errors.As(err, &de) || de.Version != Version11 {
		t.Fatalf("V12.Unmarshal(v11 envelope) = %v, want version-labeled DecodeError", err)
	}
}

func TestDetect(t *testing.T) {
	data11, err := V11.Marshal(testMessage())
	if err != nil {
		t.Fatal(err)
	}
	fault11, err := V11.MarshalFault(&Fault{Code: FaultClient, String: "x"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		data        string
		contentType string
		want        Version
	}{
		{"pure v11", string(data11), ContentType, Version11},
		{"pure v11 fault", string(fault11), ContentType, Version11},
		{"pure v12", sample12Envelope, ContentType12, Version12},
		{"v11 bytes, v12 media type", string(data11), ContentType12, VersionHybrid},
		{"v12 bytes, v11 media type", sample12Envelope, ContentType, VersionHybrid},
		{"v11 envelope, v12 fault", hybridFaultEnvelope, ContentType, VersionHybrid},
		{"v11 envelope, v12 fault shape", hybridShapeEnvelope, "", VersionHybrid},
		{"neutral media type stays pure", string(data11), "application/octet-stream", Version11},
		{"not xml", "hello", ContentType, VersionUnknown},
		{"not an envelope", "<html><body>oops</body></html>", ContentType, VersionUnknown},
		{"foreign envelope namespace", `<Envelope xmlns="urn:other"><Body/></Envelope>`, "", VersionUnknown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Detect([]byte(tc.data), tc.contentType); got != tc.want {
				t.Fatalf("Detect = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestUnmarshalFlexible(t *testing.T) {
	// Hybrid fault parses as a fault, in either hybrid variant.
	for _, data := range []string{hybridFaultEnvelope, hybridShapeEnvelope} {
		_, err := Scan([]byte(data)).Flexible()
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("Scan(hybrid fault).Flexible() = %v, want *Fault", err)
		}
		if f.Code == "" || f.String == "" {
			t.Fatalf("fault fields not mapped from 1.2 shape: %+v", f)
		}
	}
	// Pure envelopes of both versions parse as messages.
	data11, err := V11.Marshal(testMessage())
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{string(data11), sample12Envelope} {
		if _, err := Scan([]byte(data)).Flexible(); err != nil {
			t.Fatalf("Scan(pure envelope).Flexible() = %v", err)
		}
	}
}

func TestUnmarshalCoerce(t *testing.T) {
	// A 1.2 fault parses as a *successful* message named Fault — the
	// silent mishandling the coerce model exists to reproduce.
	data12, err := V12.MarshalFault(&Fault{Code: Fault12Sender, String: "x"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Scan(data12).Coerce()
	if err != nil {
		t.Fatalf("Scan(v12 fault).Coerce() = %v, want silent success", err)
	}
	if m.Local != "Fault" {
		t.Fatalf("coerced payload = %+v, want Local=Fault", m)
	}
	// The native 1.1 fault shape is still recognized.
	data11, err := V11.MarshalFault(&Fault{Code: FaultClient, String: "x"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Scan(data11).Coerce()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Scan(v11 fault).Coerce() = %v, want *Fault", err)
	}
	// And a 1.2 message is consumed without complaint.
	if _, err := Scan([]byte(sample12Envelope)).Coerce(); err != nil {
		t.Fatalf("Scan(v12 message).Coerce() = %v", err)
	}
}

func TestFaultCodeMapping(t *testing.T) {
	if got := V12.FaultCode(FaultClient); got != Fault12Sender {
		t.Fatalf("V12.FaultCode(Client) = %q", got)
	}
	if got := V12.FaultCode(FaultServer); got != Fault12Receiver {
		t.Fatalf("V12.FaultCode(Server) = %q", got)
	}
	if got := V12.FaultCode(FaultVersionMismatch); got != Fault12VersionMismatch {
		t.Fatalf("V12.FaultCode(VersionMismatch) = %q", got)
	}
	if got := V11.FaultCode(FaultClient); got != FaultClient {
		t.Fatalf("V11.FaultCode(Client) = %q", got)
	}
}

func TestContentTypeRendering(t *testing.T) {
	if got := V11.ContentType("urn:x#op"); got != ContentType {
		t.Fatalf("V11.ContentType = %q", got)
	}
	got := V12.ContentType("urn:x#op")
	if !strings.HasPrefix(got, ContentType12) || !strings.Contains(got, `action="urn:x#op"`) {
		t.Fatalf("V12.ContentType = %q", got)
	}
	if got := V12.ContentType(""); got != ContentType12 {
		t.Fatalf("V12.ContentType(\"\") = %q", got)
	}
}

func TestCodecFor(t *testing.T) {
	if c, ok := CodecFor(Version11); !ok || c.Version() != Version11 {
		t.Fatal("CodecFor(Version11)")
	}
	if c, ok := CodecFor(Version12); !ok || c.Version() != Version12 {
		t.Fatal("CodecFor(Version12)")
	}
	if _, ok := CodecFor(VersionHybrid); ok {
		t.Fatal("CodecFor(VersionHybrid) must not resolve")
	}
	if _, ok := CodecFor(VersionUnknown); ok {
		t.Fatal("CodecFor(VersionUnknown) must not resolve")
	}
}

// TestMediaTypeMatchesMIME holds the media-type fast path to
// mime.ParseMediaType: for every Content-Type the codecs, the fault
// injector and the version wire emit, and for malformed values, the
// media type and the error state agree.
func TestMediaTypeMatchesMIME(t *testing.T) {
	values := []string{
		ContentType, ContentType12, V11.ContentType("urn:op"), V12.ContentType("urn:op"),
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
