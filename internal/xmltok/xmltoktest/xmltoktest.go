// Package xmltoktest supplies the wire bytes the tokenizer's fast path
// and its encoding/xml fallback are tested on: the envelopes the SOAP
// codecs and the Host write, and the response body of every
// faultinject fault.
package xmltoktest

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wsinterop/internal/faultinject"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// CodecOutputs are the envelopes the codecs write for values that
// need no escaping, which is every value the campaigns send: messages
// of both versions, faults of both shapes, and the Host's echo
// responses. Every one must take the scanner's fast path.
func CodecOutputs(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte)
	msg := &soap.Message{
		Namespace: "http://svc.test/", Local: "echo",
		Fields: map[string]string{
			"input": "probe:java.util.Map$Entry ]] 1.5 (x)", "date": "2014-06-23T10:00:00Z",
			"count": "7", "flag": "",
		},
	}
	fault := &soap.Fault{Code: soap.FaultClient, String: "required element missing", Actor: "urn:actor", Detail: "d"}
	for _, c := range []soap.Codec{soap.V11, soap.V12} {
		v := c.Version().String()
		m, err := c.Marshal(msg)
		if err != nil {
			tb.Fatal(err)
		}
		out[v+"/marshal"] = m
		f, err := c.MarshalFault(fault)
		if err != nil {
			tb.Fatal(err)
		}
		out[v+"/fault"] = f
		f, err = c.MarshalFault(&soap.Fault{Code: c.FaultCode(soap.FaultServer), String: "x"})
		if err != nil {
			tb.Fatal(err)
		}
		out[v+"/fault-short"] = f
		out[v+"/host-echo"] = hostResponse(tb, c, faultinject.Fault{})
	}
	return out
}

// FaultBodies are the response bodies of every faultinject fault in
// the catalog, behind echo Hosts of both versions; a fault that drops
// the connection has no body and no entry.
func FaultBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte)
	for _, c := range []soap.Codec{soap.V11, soap.V12} {
		for _, f := range faultinject.Catalog() {
			if b := hostResponse(tb, c, f); b != nil {
				out[c.Version().String()+"/"+f.Name] = b
			}
		}
	}
	return out
}

// hostResponse posts a codec-c echo request to an echo Host, behind
// the fault injector when fault is set, and returns the response body;
// nil when the fault drops the connection.
func hostResponse(tb testing.TB, c soap.Codec, fault faultinject.Fault) (body []byte) {
	tb.Helper()
	host := transport.NewHost()
	host.SetVersionPolicy(&transport.VersionPolicy{Codec: c, Strictness: soap.StrictReject})
	if err := host.Deploy(&transport.Endpoint{
		Path: "/svc", Namespace: "http://svc.test/",
		Operations: map[string]string{"echo": "echoResponse"},
	}); err != nil {
		tb.Fatal(err)
	}
	req, err := c.Marshal(&soap.Message{
		Namespace: "http://svc.test/", Local: "echo",
		Fields: map[string]string{"input": "ping", "count": "3"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/svc", bytes.NewReader(req))
	r.Header.Set("Content-Type", c.ContentType(""))
	var h http.Handler = host
	if fault.Kind != "" {
		inj := faultinject.New(host).WithCodec(c)
		inj.Sleep = func(time.Duration) {}
		inj.Arm(fault)
		h = inj
	}
	rec := httptest.NewRecorder()
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			body = nil
		}
	}()
	h.ServeHTTP(rec, r)
	return rec.Body.Bytes()
}
