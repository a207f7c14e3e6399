package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wsinterop/internal/soap"
)

// cannedHandler serves a fixed (status, content type, body) triple —
// the knob for the status × body decode matrix.
func cannedHandler(status int, contentType string, body []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(status)
		_, _ = w.Write(body)
	})
}

func echoEnvelope(t *testing.T) []byte {
	t.Helper()
	body, err := soap.V11.Marshal(&soap.Message{
		Namespace: "urn:test", Local: "echoResponse",
		Fields: map[string]string{"input": "ping"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func faultEnvelope(t *testing.T) []byte {
	t.Helper()
	body, err := soap.V11.MarshalFault(&soap.Fault{Code: soap.FaultServer, String: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStatusDecodeMatrix drives the status-aware decode through both
// invocation paths: every combination of HTTP status class and body
// shape must map to the same typed result. The 4xx/5xx × envelope rows
// are the status-blind bug fix — before it, a well-formed body on an
// error status was reported as success.
func TestStatusDecodeMatrix(t *testing.T) {
	req := &soap.Message{Namespace: "urn:test", Local: "echo",
		Fields: map[string]string{"input": "ping"}}

	type want int
	const (
		wantMessage want = iota
		wantFault
		wantHTTPError
		wantDecodeError
	)
	cases := []struct {
		name        string
		status      int
		contentType string
		body        func(*testing.T) []byte
		want        want
	}{
		{"200 envelope", 200, soap.ContentType, echoEnvelope, wantMessage},
		{"200 fault", 200, soap.ContentType, faultEnvelope, wantFault},
		{"200 garbage", 200, soap.ContentType,
			func(*testing.T) []byte { return []byte("not xml") }, wantDecodeError},
		{"400 envelope", 400, soap.ContentType, echoEnvelope, wantHTTPError},
		{"404 garbage", 404, "text/plain",
			func(*testing.T) []byte { return []byte("404 page not found") }, wantHTTPError},
		{"500 fault", 500, soap.ContentType, faultEnvelope, wantFault},
		{"500 envelope", 500, soap.ContentType, echoEnvelope, wantHTTPError},
		{"500 garbage", 500, "text/html",
			func(*testing.T) []byte { return []byte("<html>err</html>") }, wantHTTPError},
		{"503 empty", 503, "text/plain",
			func(*testing.T) []byte { return nil }, wantHTTPError},
	}

	check := func(t *testing.T, c struct {
		name        string
		status      int
		contentType string
		body        func(*testing.T) []byte
		want        want
	}, resp *soap.Message, err error) {
		t.Helper()
		switch c.want {
		case wantMessage:
			if err != nil {
				t.Fatalf("want message, got error %v", err)
			}
			if v, _ := resp.Field("input"); v != "ping" {
				t.Errorf("echo = %q", v)
			}
		case wantFault:
			var fault *soap.Fault
			if !errors.As(err, &fault) {
				t.Fatalf("want *soap.Fault, got %v", err)
			}
		case wantHTTPError:
			var he *HTTPError
			if !errors.As(err, &he) {
				t.Fatalf("want *HTTPError, got %v", err)
			}
			if he.Status != c.status {
				t.Errorf("HTTPError.Status = %d, want %d", he.Status, c.status)
			}
		case wantDecodeError:
			var de *soap.DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("want *soap.DecodeError, got %v", err)
			}
		}
	}

	for _, c := range cases {
		t.Run("bridge/"+c.name, func(t *testing.T) {
			bridge := NewLocalBridge(cannedHandler(c.status, c.contentType, c.body(t)))
			resp, err := bridge.Invoke(context.Background(), "/svc", req)
			check(t, c, resp, err)
		})
		t.Run("client/"+c.name, func(t *testing.T) {
			srv := httptest.NewServer(cannedHandler(c.status, c.contentType, c.body(t)))
			defer srv.Close()
			resp, err := NewClient(nil).Invoke(context.Background(), srv.URL, "", req)
			check(t, c, resp, err)
		})
	}
}

// flakyHandler fails the first n requests with a 503, then echoes.
type flakyHandler struct {
	failures int
	seen     int
	echo     []byte
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.seen++
	if h.seen <= h.failures {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", soap.ContentType)
	_, _ = w.Write(h.echo)
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	h := &flakyHandler{failures: 2, echo: echoEnvelope(t)}
	var slept []time.Duration
	policy := &RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   10 * time.Millisecond,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	bridge := NewLocalBridge(h).WithRetry(policy)
	resp, err := bridge.Invoke(context.Background(),
		"/svc", &soap.Message{Namespace: "urn:test", Local: "echo",
			Fields: map[string]string{"input": "ping"}})
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if v, _ := resp.Field("input"); v != "ping" {
		t.Errorf("echo = %q", v)
	}
	if h.seen != 3 {
		t.Errorf("attempts = %d, want 3", h.seen)
	}
	// Fake clock observed the exponential backoff: base, then doubled.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	h := &flakyHandler{failures: 10, echo: echoEnvelope(t)}
	policy := &RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	_, err := NewLocalBridge(h).WithRetry(policy).Invoke(context.Background(),
		"/svc", &soap.Message{Namespace: "urn:test", Local: "echo"})
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503 HTTPError after exhaustion, got %v", err)
	}
	if h.seen != 4 {
		t.Errorf("attempts = %d, want 4 (MaxAttempts)", h.seen)
	}
}

func TestNoRetryOnDefinitiveErrors(t *testing.T) {
	cases := []struct {
		name    string
		status  int
		body    func(*testing.T) []byte
		ctype   string
		wantErr func(error) bool
	}{
		{"soap fault", 500, faultEnvelope, soap.ContentType, func(err error) bool {
			var f *soap.Fault
			return errors.As(err, &f)
		}},
		{"client 4xx", 400, func(*testing.T) []byte { return []byte("bad request") },
			"text/plain", func(err error) bool {
				var he *HTTPError
				return errors.As(err, &he) && he.Status == 400
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seen := 0
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				seen++
				w.Header().Set("Content-Type", c.ctype)
				w.WriteHeader(c.status)
				_, _ = w.Write(c.body(t))
			})
			policy := &RetryPolicy{MaxAttempts: 5,
				Sleep: func(context.Context, time.Duration) error { return nil }}
			_, err := NewLocalBridge(h).WithRetry(policy).Invoke(context.Background(),
				"/svc", &soap.Message{Namespace: "urn:test", Local: "echo"})
			if !c.wantErr(err) {
				t.Fatalf("unexpected error: %v", err)
			}
			if seen != 1 {
				t.Errorf("attempts = %d, want 1 (definitive errors must not retry)", seen)
			}
		})
	}
}

func TestBackoffCapAndJitter(t *testing.T) {
	p := &RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    35 * time.Millisecond,
	}
	// Doubling capped at MaxDelay.
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		35 * time.Millisecond,
		35 * time.Millisecond,
	}
	for i, attempt := range []int{1, 2, 3, 4} {
		if got := p.backoff(attempt); got != want[i] {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want[i])
		}
	}
}

func TestRetryDeadlineBoundsInvocation(t *testing.T) {
	h := &flakyHandler{failures: 1 << 30, echo: nil}
	policy := &RetryPolicy{
		MaxAttempts: 1 << 20,
		Deadline:    20 * time.Millisecond,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			// A cooperative fake clock: yield until the deadline context
			// expires rather than spinning through a million attempts.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
				return nil
			}
		},
	}
	start := time.Now()
	_, err := NewLocalBridge(h).WithRetry(policy).Invoke(context.Background(),
		"/svc", &soap.Message{Namespace: "urn:test", Local: "echo"})
	if err == nil {
		t.Fatal("want error after deadline")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline did not bound the invocation: %v", elapsed)
	}
	// The surfaced error is the last attempt's, not a bare context error.
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Errorf("want last attempt's HTTPError, got %v", err)
	}
}

func TestLocalBridgeAbortIsTyped(t *testing.T) {
	h := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	_, err := NewLocalBridge(h).Invoke(context.Background(),
		"/svc", &soap.Message{Namespace: "urn:test", Local: "echo"})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	if !Retryable(err) {
		t.Error("aborted connections must be retryable")
	}
}
