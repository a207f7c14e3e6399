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
// echo endpoint — and holds readBody's two branches to each other
// (checkChain). The chain runs over a SOAP 1.1 host, the axis's, and a
// SOAP 1.2 host. An empty SOAPAction sends no such header. A crash or a
// difference here is a bug in the chain, not in the test. Bodies past
// the 1 MiB request budget cost tens of milliseconds per exec, so they
// are left to TestHandlerChainOverBudget rather than fuzzed.
func FuzzHandlerChain(f *testing.F) {
	hosts, path, v11, v12 := chainHosts(f)
	ct11, ct12 := soap.V11.ContentType(""), soap.V12.ContentType("")

	f.Add(http.MethodPost, path, ct11, `""`, v11)
	f.Add(http.MethodPost, path, ct12, "", v12)
	f.Add(http.MethodPost, path, ct11, `""`, []byte{})
	f.Add(http.MethodGet, path, ct11, `""`, v11)
	f.Add(http.MethodGet, path+"?wsdl", "", "", []byte{})
	f.Add(http.MethodPost, "/no/such/service", ct11, `""`, v11)

	f.Fuzz(func(t *testing.T, method, target, contentType, action string, body []byte) {
		u, err := url.Parse(target)
		if err != nil {
			return
		}
		checkChain(t, hosts, method, u, contentType, action, body)
	})
}

// TestHandlerChainOverBudget is FuzzHandlerChain's over-budget input:
// the echo request padded with spaces to one byte past the request
// budget, through both hosts.
func TestHandlerChainOverBudget(t *testing.T) {
	hosts, path, v11, _ := chainHosts(t)
	body := append(v11, bytes.Repeat([]byte(" "), maxRequestBytes+1-len(v11))...)
	u, err := url.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, hosts, http.MethodPost, u, soap.V11.ContentType(""), `""`, body)
}

// chainHosts builds the chain tests' SOAP 1.1 and SOAP 1.2 hosts, each
// serving one echo endpoint at path, and that endpoint's echo request
// in either version.
func chainHosts(tb testing.TB) (hosts []*Host, path string, v11, v12 []byte) {
	tb.Helper()
	var ep *Endpoint
	for _, policy := range []*VersionPolicy{nil, {Codec: soap.V12}} {
		var h *Host
		h, ep = versionTestHost(tb, policy)
		hosts = append(hosts, h)
	}
	echo := func(codec soap.Codec) []byte {
		body, err := codec.Marshal(versionTestRequest(ep))
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
	return hosts, ep.Path, echo(soap.V11), echo(soap.V12)
}

// checkChain sends one request through every host three times: the
// client's in-process request, whose body the chain reads in place, and
// the same request with a plain streamed body must answer with the same
// status, Content-Type and body and leave the same sniffer findings,
// and a second in-process run must repeat the first: the pooled
// recorders and header maps carry nothing across exchanges.
func checkChain(t *testing.T, hosts []*Host, method string, u *url.URL, contentType, action string, body []byte) {
	t.Helper()
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
