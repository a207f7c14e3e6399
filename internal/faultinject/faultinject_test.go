package faultinject

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
	"wsinterop/internal/wsi"
)

// echoHandler is a minimal SOAP echo service: it parses the request
// payload and mirrors it back under a Response wrapper, like the real
// transport.Host does for catalog services.
func echoHandler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, r.ContentLength)
		if _, err := r.Body.Read(body); err != nil && err.Error() != "EOF" {
			t.Errorf("read request: %v", err)
		}
		msg, err := soap.V11.Unmarshal(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp, err := soap.V11.Marshal(&soap.Message{
			Namespace: msg.Namespace, Local: msg.Local + "Response", Fields: msg.Fields,
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(resp)
	})
}

func echoRequest() *soap.Message {
	return &soap.Message{Namespace: "urn:test", Local: "echo",
		Fields: map[string]string{"input": "ping", "count": "3"}}
}

// invokeFaulted arms the injector with the fault and drives one
// single-attempt invocation through it.
func invokeFaulted(t *testing.T, inj *Injector, f Fault) (*soap.Message, error) {
	t.Helper()
	inj.Arm(f)
	return transport.NewLocalBridge(inj).Invoke(context.Background(), "/svc", echoRequest())
}

func TestPassthroughWithoutDirective(t *testing.T) {
	inj := New(echoHandler(t))
	resp, err := transport.NewLocalBridge(inj).Invoke(context.Background(), "/svc", echoRequest())
	if err != nil {
		t.Fatalf("clean invoke through idle injector: %v", err)
	}
	if v, _ := resp.Field("input"); v != "ping" {
		t.Errorf("echo = %q, want ping", v)
	}
}

// TestFaultKinds drives every catalog fault end to end through a
// LocalBridge and asserts the client-visible effect.
func TestFaultKinds(t *testing.T) {
	inj := New(echoHandler(t))
	inj.Sleep = func(time.Duration) {} // keep the delay fault instant

	isHTTPError := func(status int) func(*testing.T, *soap.Message, error) {
		return func(t *testing.T, _ *soap.Message, err error) {
			var he *transport.HTTPError
			if !errors.As(err, &he) {
				t.Fatalf("want *HTTPError, got %v", err)
			}
			if he.Status != status {
				t.Errorf("status = %d, want %d", he.Status, status)
			}
		}
	}
	isDecodeError := func(t *testing.T, _ *soap.Message, err error) {
		var de *soap.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("want *soap.DecodeError, got %v", err)
		}
	}

	cases := []struct {
		kind  Kind
		check func(*testing.T, *soap.Message, error)
	}{
		{KindTruncate, isDecodeError},
		{KindHTMLError, isHTTPError(http.StatusInternalServerError)},
		{KindStatus500, isHTTPError(http.StatusInternalServerError)},
		{KindWrongContentType, func(t *testing.T, resp *soap.Message, err error) {
			// The envelope is intact; only the media type lies. The codec
			// does not sniff media types, so the exchange succeeds — the
			// conformance violation is the sniffer's to flag.
			if err != nil {
				t.Fatalf("wrong content type should still decode: %v", err)
			}
			if v, _ := resp.Field("input"); v != "ping" {
				t.Errorf("echo = %q", v)
			}
		}},
		{KindEmptyBody, isDecodeError},
		{KindOversize, isDecodeError},
		{KindDuplicateChild, isDecodeError},
		{KindRenameChild, func(t *testing.T, resp *soap.Message, err error) {
			// Still a well-formed envelope: the corruption shows up as a
			// missing expected field, i.e. a response-shape mismatch.
			if err != nil {
				t.Fatalf("renamed child should still decode: %v", err)
			}
			if _, ok := resp.Field("count"); ok {
				t.Error("first (sorted) child should have been renamed away")
			}
			if _, ok := resp.Field("countX"); !ok {
				t.Errorf("renamed field missing; fields = %v", resp.Fields)
			}
		}},
		{KindDelay, func(t *testing.T, resp *soap.Message, err error) {
			if err != nil {
				t.Fatalf("delayed response should succeed: %v", err)
			}
		}},
		{KindAbort, func(t *testing.T, _ *soap.Message, err error) {
			if !errors.Is(err, transport.ErrAborted) {
				t.Fatalf("want ErrAborted, got %v", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(string(c.kind), func(t *testing.T) {
			resp, err := invokeFaulted(t, inj, Fault{Kind: c.kind})
			c.check(t, resp, err)
		})
	}
}

func TestDuplicateChildCorruptsValue(t *testing.T) {
	inj := New(echoHandler(t))
	_, err := invokeFaulted(t, inj, Fault{Kind: KindDuplicateChild})
	var de *soap.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("duplicated child must be rejected by the codec, got %v", err)
	}
	if !strings.Contains(de.Reason, "duplicate") {
		t.Errorf("reason = %q, want duplicate-child rejection", de.Reason)
	}
}

// TestTransientFaultRespectsAttempts checks a fault with Times set:
// it fires on the first Times attempts and passes through after.
func TestTransientFaultRespectsAttempts(t *testing.T) {
	inj := New(echoHandler(t))
	inj.Arm(Fault{Kind: KindAbort, Times: 1})
	policy := &transport.RetryPolicy{
		MaxAttempts: 3,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	bridge := transport.NewLocalBridge(inj).WithRetry(policy)
	resp, err := bridge.Invoke(context.Background(), "/svc", echoRequest())
	if err != nil {
		t.Fatalf("transient fault should recover under retry: %v", err)
	}
	if attempts := inj.Attempts(); attempts != 2 {
		t.Errorf("attempts = %d, want 2 (fault on first only)", attempts)
	}
	if v, _ := resp.Field("input"); v != "ping" {
		t.Errorf("echo = %q", v)
	}
}

func TestTransientFaultWithoutRetryFails(t *testing.T) {
	inj := New(echoHandler(t))
	_, err := invokeFaulted(t, inj, Fault{Kind: KindAbort, Times: 1})
	if !errors.Is(err, transport.ErrAborted) {
		t.Fatalf("single attempt must still hit the transient fault, got %v", err)
	}
}

func TestUnknownDirectiveIsServerError(t *testing.T) {
	inj := New(echoHandler(t))
	_, err := invokeFaulted(t, inj, Fault{Kind: "no-such-fault"})
	var he *transport.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusInternalServerError {
		t.Fatalf("unknown directive should 500, got %v", err)
	}
}

// TestComposesWithSniffer stacks the injector over a sniffer over a
// handler — the composition the campaign uses — and checks both
// middlewares observe the exchange.
func TestComposesWithSniffer(t *testing.T) {
	sniffer := transport.NewSniffer(echoHandler(t), wsi.NewChecker())
	inj := New(sniffer)

	if _, err := transport.NewLocalBridge(inj).Invoke(context.Background(), "/svc", echoRequest()); err != nil {
		t.Fatalf("clean invoke through the stack: %v", err)
	}
	if sniffer.Exchanges() != 1 {
		t.Errorf("sniffer exchanges = %d, want 1", sniffer.Exchanges())
	}
}

func TestOversizeExceedsReadBudget(t *testing.T) {
	rec := httptest.NewRecorder()
	inj := New(echoHandler(t))
	inj.Arm(Fault{Kind: KindOversize})
	req := httptest.NewRequest(http.MethodPost, "/svc", strings.NewReader(mustMarshal(t)))
	req.Header.Set("Content-Type", soap.ContentType)
	req.ContentLength = int64(len(mustMarshal(t)))
	inj.ServeHTTP(rec, req)
	if rec.Body.Len() <= 1<<20 {
		t.Errorf("oversize body = %d bytes, want > 1 MiB", rec.Body.Len())
	}
}

func mustMarshal(t *testing.T) string {
	t.Helper()
	b, err := soap.V11.Marshal(echoRequest())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCatalogIsStable(t *testing.T) {
	c1, c2 := Catalog(), Catalog()
	if len(c1) == 0 {
		t.Fatal("empty catalog")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("catalog row %d not stable: %+v vs %+v", i, c1[i], c2[i])
		}
	}
	seen := map[string]bool{}
	for _, f := range c1 {
		if seen[f.Name] {
			t.Errorf("duplicate catalog row %q", f.Name)
		}
		seen[f.Name] = true
	}
}
