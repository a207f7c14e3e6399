package transport

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
)

func TestSnippetRuneBoundary(t *testing.T) {
	// Byte 120 falls inside the two-byte é: the cut must back up to the
	// rune start instead of splitting the sequence.
	body := []byte(strings.Repeat("a", 119) + "é" + strings.Repeat("b", 40))
	got := snippet(body)
	if !utf8.ValidString(got) {
		t.Errorf("snippet produced invalid UTF-8: %q", got)
	}
	if want := strings.Repeat("a", 119) + "..."; got != want {
		t.Errorf("snippet = %q, want %q", got, want)
	}
	// Sweep the limit across 2-, 3- and 4-byte sequences: every offset
	// must yield valid UTF-8.
	for pad := 100; pad <= 125; pad++ {
		b := []byte(strings.Repeat("x", pad) + strings.Repeat("é€𝄞", 20))
		if s := snippet(b); !utf8.ValidString(s) {
			t.Errorf("pad %d: snippet produced invalid UTF-8: %q", pad, s)
		}
	}
	if s := snippet([]byte("  short  ")); s != "short" {
		t.Errorf("short body snippet = %q, want %q", s, "short")
	}
}

func TestRecordingWriterImplicitStatus(t *testing.T) {
	// A handler that writes a body without WriteHeader gets net/http's
	// implicit 200; the recorder must see the same.
	w := &recordingWriter{ResponseWriter: httptest.NewRecorder()}
	if _, err := w.Write([]byte("hi")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if w.Status() != http.StatusOK {
		t.Errorf("implicit status = %d, want 200", w.Status())
	}

	// An explicit status is preserved, and only the first one counts.
	w = &recordingWriter{ResponseWriter: httptest.NewRecorder()}
	w.WriteHeader(http.StatusTeapot)
	w.WriteHeader(http.StatusOK)
	if w.Status() != http.StatusTeapot {
		t.Errorf("explicit status = %d, want 418", w.Status())
	}

	// A handler that writes nothing at all is still an implicit 200.
	w = &recordingWriter{ResponseWriter: httptest.NewRecorder()}
	if w.Status() != http.StatusOK {
		t.Errorf("silent handler status = %d, want 200", w.Status())
	}
}

func TestRecordingWriterFlusherPassthrough(t *testing.T) {
	var _ http.Flusher = (*recordingWriter)(nil)
	rec := httptest.NewRecorder()
	w := &recordingWriter{ResponseWriter: rec}
	w.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the wrapped writer")
	}
	// A writer without Flusher support is a no-op, not a panic.
	(&recordingWriter{ResponseWriter: newRecorder()}).Flush()
}

func TestSnifferRecordsImplicitStatus(t *testing.T) {
	// A fault written without WriteHeader goes out under net/http's
	// implicit 200, which RM1126 flags; a sniffer that recorded status
	// 0 would check the response as if it had no status at all.
	fault, err := soap.V11.MarshalFault(&soap.Fault{Code: soap.FaultServer, String: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(fault) // no WriteHeader call
	})
	s := NewSniffer(inner, nil)
	req := httptest.NewRequest(http.MethodPost, "/svc", strings.NewReader("<x/>"))
	s.ServeHTTP(httptest.NewRecorder(), req)
	if s.Exchanges() != 1 {
		t.Errorf("exchanges = %d, want 1", s.Exchanges())
	}
	status := false
	for _, f := range s.Findings() {
		if f.Direction == "response" && f.Violation.Assertion.ID == "RM1126" &&
			strings.Contains(f.Violation.Detail, "HTTP 200") {
			status = true
		}
	}
	if !status {
		t.Errorf("findings = %+v, want RM1126 for the fault under the implicit 200", s.Findings())
	}
}

// errAfterReader yields its data, then fails.
type errAfterReader struct {
	data []byte
	err  error
	done bool
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, r.err
	}
	r.done = true
	return copy(p, r.data), nil
}

func TestSnifferBodyReadError(t *testing.T) {
	var got []byte
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		http.Error(w, "bad request", http.StatusBadRequest)
	})
	reg := obs.NewRegistry()
	s := NewSniffer(inner, nil).WithObs(reg)
	req := httptest.NewRequest(http.MethodPost, "/svc",
		&errAfterReader{data: []byte("<partial"), err: errors.New("connection torn")})
	s.ServeHTTP(httptest.NewRecorder(), req)
	// The handler must receive exactly the bytes the capture saw — a
	// cleanly truncated document, not the half-drained original stream.
	if string(got) != "<partial" {
		t.Errorf("handler saw %q, want the %q prefix the sniffer read", got, "<partial")
	}
	if n := reg.Counter("sniffer.request.read_errors").Value(); n != 1 {
		t.Errorf("read_errors counter = %d, want 1", n)
	}
}

func TestWSDLQueryWithoutDescriptionIs404(t *testing.T) {
	host := NewHost()
	if err := host.Deploy(&Endpoint{
		Path: "/svc", Namespace: "urn:x",
		Operations: map[string]string{"echo": "echoResponse"},
	}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	rec := httptest.NewRecorder()
	host.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/svc?wsdl", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET ?wsdl status = %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "no description published") {
		t.Errorf("GET ?wsdl body = %q, want the missing-description explanation", rec.Body.String())
	}
	// A plain GET still points at the method contract.
	rec = httptest.NewRecorder()
	host.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/svc", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("plain GET status = %d, want 405", rec.Code)
	}
}

func TestInvokeMetersRecordAttemptsAndErrors(t *testing.T) {
	host := NewHost()
	if err := host.Deploy(&Endpoint{
		Path: "/echo", Namespace: "urn:x",
		Operations: map[string]string{"echo": "echoResponse"},
	}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	reg := obs.NewRegistry()
	bridge := NewLocalBridge(host).WithObs(reg)

	ok := &soap.Message{Namespace: "urn:x", Local: "echo", Fields: map[string]string{"input": "x"}}
	if _, err := bridge.Invoke(context.Background(), "/echo", ok); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	// Unknown operation surfaces a SOAP fault — a counted error class.
	if _, err := bridge.Invoke(context.Background(), "/echo",
		&soap.Message{Namespace: "urn:x", Local: "bogus"}); err == nil {
		t.Fatal("expected fault")
	}

	if n := reg.Counter("transport.attempts").Value(); n != 2 {
		t.Errorf("attempts = %d, want 2", n)
	}
	if n := reg.Counter("transport.errors.fault").Value(); n != 1 {
		t.Errorf("fault errors = %d, want 1", n)
	}
	snap := reg.Snapshot()
	for _, h := range snap.Histograms {
		if h.Name == "transport.invoke.seconds" {
			if h.Count != 2 {
				t.Errorf("invoke latency count = %d, want 2", h.Count)
			}
			return
		}
	}
	t.Error("transport.invoke.seconds histogram missing from snapshot")
}
