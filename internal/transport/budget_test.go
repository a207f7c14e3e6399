package transport

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"wsinterop/internal/soap"
)

// paddedEnvelope returns a SOAP 1.1 echo response whitespace-padded
// inside the envelope to exactly size bytes.
func paddedEnvelope(t *testing.T, size int) []byte {
	t.Helper()
	env := echoEnvelope(t)
	closing := []byte(soap.V11.EnvelopeClose())
	cut := bytes.LastIndex(env, closing)
	if cut < 0 || size < len(env) {
		t.Fatalf("cannot pad a %d-byte envelope to %d bytes", len(env), size)
	}
	out := make([]byte, 0, size)
	out = append(out, env[:cut]...)
	out = append(out, bytes.Repeat([]byte(" "), size-len(env))...)
	return append(out, env[cut:]...)
}

// chunkedHandler serves body as a 200 SOAP response, in one Write when
// chunk is 0 and in chunk-sized Writes otherwise.
func chunkedHandler(body []byte, chunk int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", soap.ContentType)
		if chunk == 0 {
			_, _ = w.Write(body)
			return
		}
		for rest := body; len(rest) > 0; {
			n := min(chunk, len(rest))
			_, _ = w.Write(rest[:n])
			rest = rest[n:]
		}
	})
}

// invokeBoth sends one echo request through a LocalBridge and through
// a networked Client to the same handler.
func invokeBoth(t *testing.T, h http.Handler) (bridgeResp *soap.Message, bridgeErr error,
	clientResp *soap.Message, clientErr error) {
	t.Helper()
	req := &soap.Message{Namespace: "urn:test", Local: "echo",
		Fields: map[string]string{"input": "ping"}}
	bridgeResp, bridgeErr = NewLocalBridge(h).Invoke(context.Background(), "/svc", req)
	srv := httptest.NewServer(h)
	defer srv.Close()
	clientResp, clientErr = NewClient(nil).Invoke(context.Background(), srv.URL, "", req)
	return
}

// TestReadBudgetParity checks that LocalBridge and Client draw the
// read budget at the same byte: a response of exactly maxResponseBytes
// decodes on both, one byte more is the same read-budget
// *soap.DecodeError on both, however the handler splits its writes.
func TestReadBudgetParity(t *testing.T) {
	for _, chunk := range []int{0, 4 << 10} {
		name := "one-write"
		if chunk > 0 {
			name = "4KiB-chunks"
		}
		t.Run(name+"/at-budget", func(t *testing.T) {
			br, be, cr, ce := invokeBoth(t, chunkedHandler(paddedEnvelope(t, maxResponseBytes), chunk))
			if be != nil || ce != nil {
				t.Fatalf("a response of exactly the budget must decode: bridge %v, client %v", be, ce)
			}
			for side, resp := range map[string]*soap.Message{"bridge": br, "client": cr} {
				if v, _ := resp.Field("input"); v != "ping" {
					t.Errorf("%s echo = %q, want ping", side, v)
				}
			}
		})
		t.Run(name+"/past-budget", func(t *testing.T) {
			_, be, _, ce := invokeBoth(t, chunkedHandler(paddedEnvelope(t, maxResponseBytes+1), chunk))
			for side, err := range map[string]error{"bridge": be, "client": ce} {
				var de *soap.DecodeError
				if !errors.As(err, &de) || !strings.Contains(de.Reason, "read budget") {
					t.Errorf("%s: want the read-budget *soap.DecodeError, got %v", side, err)
				}
			}
			if be == nil || ce == nil || be.Error() != ce.Error() {
				t.Errorf("bridge error %v differs from client error %v", be, ce)
			}
		})
	}
}

// TestSilentHandlerIsImplicit200 checks that a handler writing nothing
// reads as an empty 200 response on both paths: a decode error, not an
// *HTTPError.
func TestSilentHandlerIsImplicit200(t *testing.T) {
	_, be, _, ce := invokeBoth(t, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	for side, err := range map[string]error{"bridge": be, "client": ce} {
		var de *soap.DecodeError
		if !errors.As(err, &de) || !strings.Contains(err.Error(), "HTTP 200") {
			t.Errorf("%s: want a decode error of an HTTP 200 response, got %v", side, err)
		}
	}
}

// TestBridgeRefusesRunawayResponse streams 64 MiB through the bridge:
// it must refuse the response with the read-budget error while keeping
// at most the budget in memory, instead of buffering all of it.
func TestBridgeRefusesRunawayResponse(t *testing.T) {
	const total = 64 << 20
	chunk := bytes.Repeat([]byte(" "), 32<<10)
	runaway := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", soap.ContentType)
		for n := 0; n < total; n += len(chunk) {
			_, _ = w.Write(chunk) // deliberately deaf to the refusal
		}
	})

	rec := NewCapture(maxResponseBytes)
	runaway.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/svc", nil))
	if !rec.Overflowed() {
		t.Error("a 64 MiB response must overflow the capture")
	}
	if n := cap(rec.Body()); n > maxResponseBytes+1 {
		t.Errorf("capture retains %d bytes, want at most %d", n, maxResponseBytes+1)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewLocalBridge(runaway).Invoke(context.Background(), "/svc",
		&soap.Message{Namespace: "urn:test", Local: "echo"})
	runtime.ReadMemStats(&after)
	var de *soap.DecodeError
	if !errors.As(err, &de) || !strings.Contains(de.Reason, "read budget") {
		t.Fatalf("want the read-budget *soap.DecodeError, got %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*maxResponseBytes {
		t.Errorf("bridge allocated %d bytes refusing the response, want under %d", alloc, 4*maxResponseBytes)
	}
}

// TestCaptureMatchesRecorder holds Capture to the semantics of
// httptest.ResponseRecorder, which the in-process paths used before:
// status, Content-Type and body must agree for every handler shape.
func TestCaptureMatchesRecorder(t *testing.T) {
	handlers := map[string]http.HandlerFunc{
		"silent": func(http.ResponseWriter, *http.Request) {},
		"implicit-200-sniffed": func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("<?xml version=\"1.0\"?><x/>"))
		},
		"explicit-status-no-type": func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write([]byte("plain"))
		},
		"first-status-wins": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", soap.ContentType)
			w.WriteHeader(http.StatusTeapot)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("a"))
			_, _ = w.Write([]byte("b"))
		},
		"http-error": func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "gone", http.StatusGone)
		},
	}
	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/svc", nil)
			want := httptest.NewRecorder()
			h(want, req)
			got := NewCapture(0)
			h(got, req)
			if got.Status() != want.Code {
				t.Errorf("status = %d, want %d", got.Status(), want.Code)
			}
			if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
				t.Errorf("Content-Type = %q, want %q", g, w)
			}
			if !bytes.Equal(got.Body(), want.Body.Bytes()) {
				t.Errorf("body = %q, want %q", got.Body(), want.Body.Bytes())
			}
		})
	}
}
