package transport

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/wsi"
)

// chainResult is what one request through the handler chain leaves:
// the response and the sniffer's count and findings.
type chainResult struct {
	status              int
	contentType, body   string
	exchanges           int
	findings            []CapturedViolation
	requestReadErrors   int64
	requestTruncations  int64
	responseTruncations int64
}

// FuzzHandlerChain sends arbitrary requests into the in-process handler
// chain of the communication axis — NewSniffer over a Host serving one
// echo endpoint — and holds readBody's two branches to each other: the
// client's in-process request, whose body the chain reads in place,
// and the same request with a plain streamed body. Both must answer
// with the same status, Content-Type and body and leave the same
// sniffer findings, and a second run must repeat the first: the pooled
// recorders and header maps carry nothing across exchanges. The chain
// runs over a SOAP 1.1 host, the axis's, and a SOAP 1.2 host. An
// empty SOAPAction sends no such header. A crash or a difference here
// is a bug in the chain, not in the test.
func FuzzHandlerChain(f *testing.F) {
	hosts := make([]*Host, 0, 2)
	var ep *Endpoint
	for _, policy := range []*VersionPolicy{nil, {Codec: soap.V12}} {
		var h *Host
		h, ep = versionTestHost(f, policy)
		hosts = append(hosts, h)
	}
	path := ep.Path
	echo := func(codec soap.Codec) []byte {
		body, err := codec.Marshal(versionTestRequest(ep))
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	v11, v12 := echo(soap.V11), echo(soap.V12)
	ct11, ct12 := soap.V11.ContentType(""), soap.V12.ContentType("")

	f.Add(http.MethodPost, path, ct11, `""`, v11, uint32(0))
	f.Add(http.MethodPost, path, ct12, "", v12, uint32(0))
	f.Add(http.MethodPost, path, ct11, `""`, v11, uint32(maxRequestBytes+1-len(v11))) // one byte over budget
	f.Add(http.MethodPost, path, ct11, `""`, []byte{}, uint32(0))
	f.Add(http.MethodGet, path, ct11, `""`, v11, uint32(0))
	f.Add(http.MethodGet, path+"?wsdl", "", "", []byte{}, uint32(0))
	f.Add(http.MethodPost, "/no/such/service", ct11, `""`, v11, uint32(0))

	// pad appends that many spaces to the body, up to one byte past the
	// request budget, so an over-budget body costs the corpus nothing.
	f.Fuzz(func(t *testing.T, method, target, contentType, action string, body []byte, pad uint32) {
		u, err := url.Parse(target)
		if err != nil {
			return
		}
		if n := min(int(pad), maxRequestBytes+1-len(body)); n > 0 {
			body = append(body, bytes.Repeat([]byte(" "), n)...)
		}
		for _, host := range hosts {
			first := [2]chainResult{
				serveChain(host, newChainRequest(method, u, contentType, action, body, false)),
				serveChain(host, newChainRequest(method, u, contentType, action, body, true)),
			}
			if !reflect.DeepEqual(first[0], first[1]) {
				t.Fatalf("in-process body: %+v\nstreamed body:   %+v", first[0], first[1])
			}
			second := serveChain(host, newChainRequest(method, u, contentType, action, body, false))
			if !reflect.DeepEqual(first[0], second) {
				t.Fatalf("first run:  %+v\nsecond run: %+v", first[0], second)
			}
		}
	})
}

// newChainRequest builds the client's in-process request for the
// fuzzed fields or, streamed, the same request whose body is a plain
// reader.
func newChainRequest(method string, u *url.URL, contentType, action string, body []byte, streamed bool) *http.Request {
	cp := *u
	r := newRequest(context.Background(), &cp, body, contentType, action != "")
	r.Method = method
	if action != "" {
		r.Header[soapActionHeader] = []string{action}
	}
	if streamed {
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return r
}

// serveChain sends one request through a fresh sniffer over host.
func serveChain(host *Host, r *http.Request) chainResult {
	reg := obs.NewRegistry()
	s := NewSniffer(host, wsi.NewChecker()).WithObs(reg)
	rec := NewCapture(0)
	defer rec.Release()
	s.ServeHTTP(rec, r)
	return chainResult{
		status: rec.Status(), contentType: rec.Header().Get("Content-Type"), body: string(rec.Body()),
		exchanges: s.Exchanges(), findings: s.Findings(),
		requestReadErrors:   reg.Counter("sniffer.request.read_errors").Value(),
		requestTruncations:  reg.Counter("sniffer.request.truncated").Value(),
		responseTruncations: reg.Counter("sniffer.response.truncated").Value(),
	}
}
