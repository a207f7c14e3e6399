package transport_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wsinterop/internal/faultinject"
	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// TestLocalBridgeAbortIsTyped drops the connection with the fault
// injector's abort in both client modes — in process, where the
// handler panics with http.ErrAbortHandler, and behind an
// httptest.Server, which answers that panic by closing the socket —
// and requires the same typed, retryable ErrAborted, counted as
// transport.errors.aborted once per attempt. Over HTTP the error keeps
// the URL.
func TestLocalBridgeAbortIsTyped(t *testing.T) {
	inj := faultinject.New(http.NotFoundHandler())
	srv := httptest.NewServer(inj)
	defer srv.Close()
	modes := []struct {
		name   string
		client *transport.Client
		target string
	}{
		{"bridge", transport.NewLocalBridge(inj), "/svc"},
		{"client", transport.NewClient(srv.Client()), srv.URL + "/svc"},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			inj.Arm(faultinject.Fault{Name: "abort", Kind: faultinject.KindAbort})
			reg := obs.NewRegistry()
			_, err := mode.client.WithRetry(&transport.RetryPolicy{MaxAttempts: 2}).WithObs(reg).
				Invoke(context.Background(), mode.target, &soap.Message{Namespace: "urn:test", Local: "echo"})
			if !errors.Is(err, transport.ErrAborted) {
				t.Fatalf("want ErrAborted, got %v", err)
			}
			if !transport.Retryable(err) {
				t.Error("aborted connections must be retryable")
			}
			if mode.name == "client" && !strings.Contains(err.Error(), mode.target) {
				t.Errorf("error %q does not name %s", err, mode.target)
			}
			attempts, aborted := reg.Counter("transport.attempts").Value(), reg.Counter("transport.errors.aborted").Value()
			if attempts != 2 || aborted != attempts || inj.Attempts() != 2 {
				t.Errorf("%d attempts, %d counted aborted, %d served; want 2 of each", attempts, aborted, inj.Attempts())
			}
		})
	}
}
