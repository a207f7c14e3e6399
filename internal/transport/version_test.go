package transport

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/soap"
	"wsinterop/internal/typesys"
)

// versionTestHost publishes one clean service onto a host with the
// given version policy, returning the host and its endpoint; no
// listener is bound (the tests serve it in each client mode).
func versionTestHost(t testing.TB, policy *VersionPolicy) (*Host, *Endpoint) {
	t.Helper()
	cat := typesys.JavaCatalog()
	var cls *typesys.Class
	for i := range cat.Classes {
		if cat.Classes[i].Kind == typesys.KindBean && cat.Classes[i].Hints == 0 {
			cls = &cat.Classes[i]
			break
		}
	}
	doc, err := framework.NewMetroServer().Publish(services.ForClass(cls))
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	h := NewHost()
	h.SetVersionPolicy(policy)
	ep, err := h.DeployWSDL(doc)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return h, ep
}

func versionTestRequest(ep *Endpoint) *soap.Message {
	return &soap.Message{
		Namespace: ep.Namespace,
		Local:     "echo",
		Fields:    map[string]string{"input": "ping"},
	}
}

// TestV12EndToEnd drives a full 1.2 exchange: V12 host, V12 client,
// application/soap+xml framing on both legs.
func TestV12EndToEnd(t *testing.T) {
	h, ep := versionTestHost(t, &VersionPolicy{Codec: soap.V12})
	eachMode(t, h, func(t *testing.T, c *Client, base string) {
		bridge := c.WithCodec(soap.V12)
		resp, err := bridge.Invoke(context.Background(), base+ep.Path, versionTestRequest(ep))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Local != "echoResponse" || resp.Fields["input"] != "ping" {
			t.Fatalf("echo mismatch: %+v", resp)
		}
	})
}

// TestStrictHostRejectsOtherVersion pins the server-side strict
// behavior: a 1.2 request to a strict 1.1 host draws a
// VersionMismatch fault in the host's own version.
func TestStrictHostRejectsOtherVersion(t *testing.T) {
	h, ep := versionTestHost(t, &VersionPolicy{Codec: soap.V11, Strictness: soap.StrictReject})
	eachMode(t, h, func(t *testing.T, c *Client, base string) {
		// The lenient client parses the 1.1 fault rather than tripping on
		// the version gate, so the fault code is observable.
		bridge := c.WithCodec(soap.V12).WithStrictness(soap.LenientAccept)
		_, err := bridge.Invoke(context.Background(), base+ep.Path, versionTestRequest(ep))
		var fault *soap.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("err = %v, want *soap.Fault", err)
		}
		if fault.Code != soap.FaultVersionMismatch {
			t.Fatalf("fault code = %q, want %q", fault.Code, soap.FaultVersionMismatch)
		}
	})
}

// TestStrictClientRejectsOtherVersion pins the client-side strict
// behavior: a strict 1.2 client refuses a 1.1 response with a typed,
// non-retryable *VersionMismatchError.
func TestStrictClientRejectsOtherVersion(t *testing.T) {
	h, ep := versionTestHost(t, &VersionPolicy{Codec: soap.V11, Strictness: soap.LenientAccept})
	eachMode(t, h, func(t *testing.T, c *Client, base string) {
		bridge := c.WithCodec(soap.V12) // strict by default
		_, err := bridge.Invoke(context.Background(), base+ep.Path, versionTestRequest(ep))
		var vm *VersionMismatchError
		if !errors.As(err, &vm) {
			t.Fatalf("err = %v, want *VersionMismatchError", err)
		}
		if vm.Want != soap.Version12 || vm.Got != soap.Version11 {
			t.Fatalf("mismatch = %+v", vm)
		}
		if Retryable(err) {
			t.Fatal("version mismatch must not be retryable")
		}
	})
}

// TestLenientHostAnswersNatively: a lenient 1.1 host accepts a 1.2
// request and answers in its own version, which a lenient client
// consumes.
func TestLenientHostAnswersNatively(t *testing.T) {
	h, ep := versionTestHost(t, &VersionPolicy{Codec: soap.V11, Strictness: soap.LenientAccept})
	eachMode(t, h, func(t *testing.T, c *Client, base string) {
		bridge := c.WithCodec(soap.V12).WithStrictness(soap.LenientAccept)
		resp, err := bridge.Invoke(context.Background(), base+ep.Path, versionTestRequest(ep))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Local != "echoResponse" {
			t.Fatalf("echo mismatch: %+v", resp)
		}
	})
}

// TestCoerceHostMirrorsFraming: a silent-coerce 1.1 host answers a
// mismatched request by mirroring its Content-Type over a 1.1 body —
// an observably hybrid response that a strict client must refuse.
func TestCoerceHostMirrorsFraming(t *testing.T) {
	h, ep := versionTestHost(t, &VersionPolicy{Codec: soap.V11, Strictness: soap.SilentCoerce})
	eachMode(t, h, func(t *testing.T, c *Client, base string) {
		bridge := c.WithCodec(soap.V12) // strict by default
		_, err := bridge.Invoke(context.Background(), base+ep.Path, versionTestRequest(ep))
		var vm *VersionMismatchError
		if !errors.As(err, &vm) {
			t.Fatalf("err = %v, want *VersionMismatchError", err)
		}
		if vm.Got != soap.VersionHybrid {
			t.Fatalf("detected %v, want hybrid (1.1 body under mirrored 1.2 framing)", vm.Got)
		}
	})
}

// TestV12FaultStatus pins the 1.2 HTTP binding detail: Sender faults
// ride HTTP 400, others 500, and the fault surfaces either way.
func TestV12FaultStatus(t *testing.T) {
	h, ep := versionTestHost(t, &VersionPolicy{Codec: soap.V12})
	eachMode(t, h, func(t *testing.T, c *Client, base string) {
		bridge := c.WithCodec(soap.V12)
		bad := &soap.Message{Namespace: ep.Namespace, Local: "noSuchOperation"}
		_, err := bridge.Invoke(context.Background(), base+ep.Path, bad)
		var fault *soap.Fault
		if !errors.As(err, &fault) {
			t.Fatalf("err = %v, want *soap.Fault", err)
		}
		if fault.Code != soap.Fault12Sender {
			t.Fatalf("fault code = %q, want %q", fault.Code, soap.Fault12Sender)
		}
	})
}

// TestDefaultPathUnchanged: with no policy and no codec, the exchange
// is the historical SOAP 1.1 wire format.
func TestDefaultPathUnchanged(t *testing.T) {
	h, ep := versionTestHost(t, nil)
	var gotCT, gotAction string
	probe := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCT = r.Header.Get("Content-Type")
		gotAction = r.Header.Get("SOAPAction")
		h.ServeHTTP(w, r)
	})
	eachMode(t, probe, func(t *testing.T, c *Client, base string) {
		resp, err := c.Invoke(context.Background(), base+ep.Path, versionTestRequest(ep))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Local != "echoResponse" {
			t.Fatalf("echo mismatch: %+v", resp)
		}
		if gotCT != soap.ContentType || gotAction != `""` {
			t.Fatalf("legacy framing changed: ct=%q action=%q", gotCT, gotAction)
		}
	})
}
