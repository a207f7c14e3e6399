package faultinject

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// Oversize responses pinned byte for byte: the padded wire of a SOAP
// 1.1 envelope, a SOAP 1.2 envelope and a body without a closing
// Envelope tag, as length and SHA-256 of the whole body, so any drift
// in prefix, filler or suffix shows.
const (
	oversizeBody11 = `<?xml version="1.0" encoding="UTF-8"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body>
    <m:echoResponse xmlns:m="urn:test">
      <m:count>3</m:count>
      <m:input>ping</m:input>
    </m:echoResponse>
  </soap:Body>
</soap:Envelope>
`
	oversizeBody12 = `<?xml version="1.0" encoding="UTF-8"?>
<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">
  <env:Body>
    <m:echoResponse xmlns:m="urn:test">
      <m:input>ping</m:input>
    </m:echoResponse>
  </env:Body>
</env:Envelope>
`
	oversizeBodyBare = "<html><body>upstream said no</body></html>\n"
)

func TestOversizeWireBytesPinned(t *testing.T) {
	cases := []struct {
		name   string
		codec  soap.Codec
		body   string
		ctype  string
		length int
		sha256 string
	}{
		{"soap11", nil, oversizeBody11, soap.ContentType,
			1049875, "b64b2c2dfc81fc89b091ee8c135b656d24e759682e29928a6bcb211d0a4eb1ea"},
		{"soap12", soap.V12, oversizeBody12, soap.ContentType12,
			1049841, "e909f37f465f5d07a3f39973a978fc97a646d93da0a6132533332113d31c20cf"},
		{"no-envelope-close", nil, oversizeBodyBare, "text/html; charset=utf-8",
			1049643, "7209b62cdb25b76b513f5e14028a7ae56511021d0e6b40a041b9ca9612b4a61f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", c.ctype)
				_, _ = w.Write([]byte(c.body))
			})
			inj := New(inner)
			if c.codec != nil {
				inj.WithCodec(c.codec)
			}
			inj.Arm(Fault{Kind: KindOversize})
			req := httptest.NewRequest(http.MethodPost, "/svc", nil)
			rec := httptest.NewRecorder()
			inj.ServeHTTP(rec, req)

			got := rec.Body.Bytes()
			sum := sha256.Sum256(got)
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d, want 200", rec.Code)
			}
			if ct := rec.Header().Get("Content-Type"); ct != c.ctype {
				t.Errorf("Content-Type = %q, want %q", ct, c.ctype)
			}
			if len(got) != c.length {
				t.Errorf("length = %d, want %d", len(got), c.length)
			}
			if h := hex.EncodeToString(sum[:]); h != c.sha256 {
				t.Errorf("sha256 = %s, want %s", h, c.sha256)
			}
		})
	}
}

// TestOversizeRefusedOverNetwork drives the oversize fault across a
// real loopback socket: a networked Client stops reading at the
// budget and surfaces the read-budget decode error, the same one the
// in-process bridge returns.
func TestOversizeRefusedOverNetwork(t *testing.T) {
	host := transport.NewHost()
	if err := host.Deploy(&transport.Endpoint{
		Path: "/svc", Namespace: "urn:test",
		Operations: map[string]string{"echo": "echoResponse"},
	}); err != nil {
		t.Fatal(err)
	}
	oversize := func() *Injector {
		inj := New(host)
		inj.Arm(Fault{Kind: KindOversize})
		return inj
	}
	// The injector is armed before the server starts serving.
	srv := httptest.NewServer(oversize())
	defer srv.Close()

	_, err := transport.NewClient(nil).Invoke(context.Background(), srv.URL+"/svc", echoRequest())
	var de *soap.DecodeError
	if !errors.As(err, &de) || !strings.Contains(de.Reason, "read budget") {
		t.Fatalf("networked oversize: want the read-budget *soap.DecodeError, got %v", err)
	}

	_, local := transport.NewLocalBridge(oversize()).Invoke(context.Background(), "/svc", echoRequest())
	if local == nil || local.Error() != err.Error() {
		t.Errorf("bridge error %v differs from networked error %v", local, err)
	}

	// The host itself stays healthy once the fault is gone: an unarmed
	// injector over it passes the exchange through.
	clean := httptest.NewServer(New(host))
	defer clean.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := transport.NewClient(nil).Invoke(ctx, clean.URL+"/svc", echoRequest()); err != nil {
		t.Errorf("clean invoke after oversize: %v", err)
	}
}

// TestOversizeBehindSniffer stacks the conformance sniffer over the
// oversize fault: the sniffer keeps at most the 1 MiB read budget of
// the response for its check, reports the cut as a truncation finding
// and counts it, while every byte still reaches the client.
func TestOversizeBehindSniffer(t *testing.T) {
	host := transport.NewHost()
	if err := host.Deploy(&transport.Endpoint{
		Path: "/svc", Namespace: "urn:test",
		Operations: map[string]string{"echo": "echoResponse"},
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	inj := New(host)
	inj.Arm(Fault{Kind: KindOversize})
	sniffer := transport.NewSniffer(inj, nil).WithObs(reg)
	body, err := soap.V11.Marshal(echoRequest())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/svc", bytes.NewReader(body))
	req.Header.Set("Content-Type", soap.ContentType)
	req.Header.Set("SOAPAction", `""`)
	rec := httptest.NewRecorder()
	sniffer.ServeHTTP(rec, req)

	if rec.Body.Len() <= oversizePad {
		t.Errorf("client received %d bytes, want the whole padded response", rec.Body.Len())
	}
	if n := sniffer.Exchanges(); n != 1 {
		t.Fatalf("sniffer captured %d exchanges, want 1", n)
	}
	truncated := false
	for _, f := range sniffer.Findings() {
		if f.Direction == "response" && strings.Contains(f.Violation.Detail, "truncated") {
			truncated = true
		}
	}
	if !truncated {
		t.Errorf("no truncation finding for the oversized response: %+v", sniffer.Findings())
	}
	if n := reg.Counter("sniffer.response.truncated").Value(); n != 1 {
		t.Errorf("sniffer.response.truncated = %d, want 1", n)
	}
}
