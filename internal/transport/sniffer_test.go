package transport

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"wsinterop/internal/soap"
)

func snifferFixture(t *testing.T) (*Sniffer, *Client, *Endpoint) {
	t.Helper()
	host := NewHost()
	ep := &Endpoint{
		Path:       "/echo",
		Namespace:  "http://svc.test/",
		Operations: map[string]string{"echo": "echoResponse"},
	}
	host.Deploy(ep)
	sniffer := NewSniffer(host, nil)
	return sniffer, NewLocalBridge(sniffer), ep
}

func TestSnifferCleanExchange(t *testing.T) {
	sniffer, bridge, ep := snifferFixture(t)
	req := &soap.Message{
		Namespace: ep.Namespace, Local: "echo",
		Fields: map[string]string{"input": "x"},
	}
	if _, err := bridge.Invoke(context.Background(), ep.Path, req); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if sniffer.Exchanges() != 1 {
		t.Errorf("exchanges = %d, want 1", sniffer.Exchanges())
	}
	if findings := sniffer.Findings(); len(findings) != 0 {
		t.Errorf("clean exchange produced findings: %v", findings)
	}
}

func TestSnifferFaultExchangeIsConformant(t *testing.T) {
	sniffer, bridge, ep := snifferFixture(t)
	// Unknown operation: the host faults with HTTP 500 — which is the
	// conformant behaviour, so no finding.
	_, err := bridge.Invoke(context.Background(), ep.Path, &soap.Message{
		Namespace: ep.Namespace, Local: "bogus",
	})
	if err == nil {
		t.Fatal("expected fault")
	}
	if findings := sniffer.Findings(); len(findings) != 0 {
		t.Errorf("conformant fault produced findings: %v", findings)
	}
}

func TestSnifferFlagsBadRequests(t *testing.T) {
	sniffer, _, ep := snifferFixture(t)
	// Hand-roll a nonconformant request: wrong content type, unquoted
	// SOAPAction, garbage body.
	req, err := http.NewRequest(http.MethodPost, ep.Path, strings.NewReader("<not-an-envelope/>"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("SOAPAction", "unquoted")
	rec := newRecorder()
	sniffer.ServeHTTP(rec, req)

	findings := sniffer.Findings()
	ids := make(map[string]bool, len(findings))
	for _, f := range findings {
		if f.Direction == "request" {
			ids[f.Violation.Assertion.ID] = true
		}
	}
	for _, want := range []string{"RM9980", "RM1119", "RM1109"} {
		if !ids[want] {
			t.Errorf("expected request finding %s, got %v", want, findings)
		}
	}
}

// newRecorder avoids importing httptest in two places.
func newRecorder() http.ResponseWriter {
	return &discardWriter{header: make(http.Header)}
}

type discardWriter struct {
	header http.Header
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
