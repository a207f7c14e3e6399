package transport

import (
	"bytes"
	"context"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
)

// bodyTap records the request body a handler receives and passes an
// unread copy on to next.
type bodyTap struct {
	next          http.Handler
	bodies        [][]byte
	contentLength []int64
}

func (tp *bodyTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tp.bodies = append(tp.bodies, data)
	tp.contentLength = append(tp.contentLength, r.ContentLength)
	r.Body = io.NopCloser(bytes.NewReader(data))
	tp.next.ServeHTTP(w, r)
}

// echoHost deploys one echo operation at /echo, answered with the
// response wrapper resp, without payload validation.
func echoHost(t *testing.T, op, resp string) *Host {
	t.Helper()
	host := NewHost()
	if err := host.Deploy(&Endpoint{
		Path: "/echo", Namespace: "urn:test",
		Operations: map[string]string{op: resp},
	}); err != nil {
		t.Fatal(err)
	}
	return host
}

// paddedRequest returns an echoPaddedRequest message whose SOAP 1.1
// envelope is exactly size bytes, and that envelope.
func paddedRequest(t *testing.T, size int) (*soap.Message, []byte) {
	t.Helper()
	msg := &soap.Message{Namespace: "urn:test", Local: "echoPaddedRequest",
		Fields: map[string]string{"input": ""}}
	base, err := soap.V11.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	msg.Fields["input"] = strings.Repeat("x", size-len(base))
	body, err := soap.V11.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != size {
		t.Fatalf("padded envelope is %d bytes, want %d", len(body), size)
	}
	return msg, body
}

// TestBridgeRequestBody pins what a handler behind LocalBridge reads:
// the marshalled envelope, with ContentLength equal to its length (a
// handler may size its read by it), on every retry attempt.
func TestBridgeRequestBody(t *testing.T) {
	req := &soap.Message{Namespace: "urn:test", Local: "echo",
		Fields: map[string]string{"input": "ping"}}
	want, err := soap.V11.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	host := echoHost(t, "echo", "echoResponse")
	// Two transient 503s, then the host: all three attempts must carry
	// the whole body.
	failures := 2
	tap := &bodyTap{next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures > 0 {
			failures--
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		host.ServeHTTP(w, r)
	})}
	resp, err := NewLocalBridge(tap).WithRetry(&RetryPolicy{MaxAttempts: 3}).
		Invoke(context.Background(), "/echo", req)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if v, _ := resp.Field("input"); v != "ping" {
		t.Errorf("echo = %q, want ping", v)
	}
	if len(tap.bodies) != 3 {
		t.Fatalf("handler saw %d attempts, want 3", len(tap.bodies))
	}
	for n, body := range tap.bodies {
		if !bytes.Equal(body, want) {
			t.Errorf("attempt %d body = %q, want the marshalled envelope %q", n+1, body, want)
		}
		if tap.contentLength[n] != int64(len(want)) {
			t.Errorf("attempt %d ContentLength = %d, want %d", n+1, tap.contentLength[n], len(want))
		}
	}
}

// TestPartlyReadBodyReachesSnifferAndHost checks that a middleware
// which reads part of the body leaves the rest, and only the rest, to
// the sniffer and the host: one that consumes the XML declaration
// leaves a bare envelope, which checks clean and echoes.
func TestPartlyReadBodyReachesSnifferAndHost(t *testing.T) {
	req := &soap.Message{Namespace: "urn:test", Local: "echo",
		Fields: map[string]string{"input": "ping"}}
	full, err := soap.V11.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	host := echoHost(t, "echo", "echoResponse")
	tap := &bodyTap{next: host}
	sniffer := NewSniffer(tap, nil)
	skipDecl := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		decl := make([]byte, len(xml.Header))
		if _, err := io.ReadFull(r.Body, decl); err != nil || string(decl) != xml.Header {
			t.Errorf("middleware read %q (%v), want the XML declaration", decl, err)
		}
		sniffer.ServeHTTP(w, r)
	})
	resp, err := NewLocalBridge(skipDecl).Invoke(context.Background(), "/echo", req)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if v, _ := resp.Field("input"); v != "ping" {
		t.Errorf("echo = %q, want ping", v)
	}
	if len(tap.bodies) != 1 || !bytes.Equal(tap.bodies[0], full[len(xml.Header):]) {
		t.Errorf("host saw %q, want the envelope after the declaration", tap.bodies)
	}
	if f := sniffer.Findings(); len(f) != 0 {
		t.Errorf("sniffer findings = %v, want none for the bare envelope", f)
	}
}

// TestSnifferFlagsOverBudgetRequest sends requests of exactly the
// request budget and one byte more, through a LocalBridge and over TCP.
// The longer one's first maxRequestBytes bytes are a complete envelope
// (only the trailing newline is cut), so only the byte read past the
// budget shows the truncation: the sniffer must flag it (RM9980) and
// count it, while the host still parses exactly the first
// maxRequestBytes bytes and echoes.
func TestSnifferFlagsOverBudgetRequest(t *testing.T) {
	for _, path := range []string{"bridge", "tcp"} {
		for _, size := range []int{maxRequestBytes, maxRequestBytes + 1} {
			over := size > maxRequestBytes
			name := path + "/at-budget"
			if over {
				name = path + "/past-budget"
			}
			t.Run(name, func(t *testing.T) {
				msg, body := paddedRequest(t, size)
				// The response wrapper "r" is shorter than the request's,
				// so the echo of a request within the budget fits the
				// response budget.
				tap := &bodyTap{next: echoHost(t, "echoPaddedRequest", "r")}
				reg := obs.NewRegistry()
				sniffer := NewSniffer(tap, nil).WithObs(reg)
				var echoed string
				if path == "bridge" {
					resp, err := NewLocalBridge(sniffer).Invoke(context.Background(), "/echo", msg)
					if err != nil {
						t.Fatalf("invoke: %v", err)
					}
					echoed, _ = resp.Field("input")
				} else {
					srv := httptest.NewServer(sniffer)
					defer srv.Close()
					httpResp, err := http.Post(srv.URL+"/echo", soap.ContentType, bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					raw, err := io.ReadAll(httpResp.Body)
					_ = httpResp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					resp, err := soap.V11.Unmarshal(raw)
					if err != nil {
						t.Fatalf("HTTP %d: %v", httpResp.StatusCode, err)
					}
					echoed, _ = resp.Field("input")
				}
				if echoed != msg.Fields["input"] {
					t.Errorf("echo of %d bytes differs from the %d sent", len(echoed), len(msg.Fields["input"]))
				}
				if len(tap.bodies) != 1 || len(tap.bodies[0]) != maxRequestBytes ||
					!bytes.Equal(tap.bodies[0], body[:maxRequestBytes]) {
					t.Errorf("host did not read exactly the first %d bytes of the request", maxRequestBytes)
				}
				truncated := 0
				for _, f := range sniffer.Findings() {
					if f.Direction == "request" && f.Violation.Assertion.ID == "RM9980" &&
						strings.Contains(f.Violation.Detail, "truncated at the 1048576-byte capture budget") {
						truncated++
					} else {
						t.Errorf("unexpected finding %v", f)
					}
				}
				want := 0
				if over {
					want = 1
				}
				if truncated != want {
					t.Errorf("request truncation findings = %d, want %d", truncated, want)
				}
				if n := reg.Counter("sniffer.request.truncated").Value(); n != int64(want) {
					t.Errorf("sniffer.request.truncated = %d, want %d", n, want)
				}
			})
		}
	}
}

// TestHostCutsRequestAtBudget checks the networked host alone: it
// parses the first maxRequestBytes bytes of a request, so an envelope
// that needs its last byte fails one byte past the budget.
func TestHostCutsRequestAtBudget(t *testing.T) {
	host := echoHost(t, "echoPaddedRequest", "r")
	base, err := host.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = host.Shutdown(context.Background()) }()
	for _, size := range []int{maxRequestBytes, maxRequestBytes + 1} {
		// The envelope without its trailing newline ends in the
		// closing tag's '>', which the parse needs.
		_, body := paddedRequest(t, size+1)
		body = body[:size]
		resp, err := http.Post(base+"/echo", soap.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		want := http.StatusOK
		if size > maxRequestBytes {
			want = http.StatusInternalServerError
		}
		if resp.StatusCode != want {
			t.Errorf("%d-byte request: HTTP %d, want %d", size, resp.StatusCode, want)
		}
	}
}

// TestConcurrentExchangesShareRequest drives one bridge, sniffer and
// host from several goroutines with one shared request message, as a
// service's client cells do: under -race it checks that the request,
// its marshalled body and the pooled response recorders are only read
// while shared.
func TestConcurrentExchangesShareRequest(t *testing.T) {
	host := echoHost(t, "echo", "echoResponse")
	sniffer := NewSniffer(host, nil)
	bridge := NewLocalBridge(sniffer)
	req := &soap.Message{Namespace: "urn:test", Local: "echo",
		Fields: map[string]string{"input": "ping", "count": "3"}}
	const workers, calls = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				resp, err := bridge.Invoke(context.Background(), "/echo", req)
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if v, _ := resp.Field("input"); v != "ping" {
					t.Errorf("echo = %q, want ping", v)
				}
			}
		}()
	}
	wg.Wait()
	if n := sniffer.Exchanges(); n != workers*calls {
		t.Errorf("exchanges = %d, want %d", n, workers*calls)
	}
	if f := sniffer.Findings(); len(f) != 0 {
		t.Errorf("findings = %v, want none", f)
	}
}
