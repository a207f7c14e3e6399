package transport

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/soap"
	"wsinterop/internal/typesys"
)

// startEchoHost publishes one clean Java service and serves it.
func startEchoHost(t *testing.T) (base string, ep *Endpoint, shutdown func()) {
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
	host := NewHost()
	ep, err = host.DeployWSDL(doc)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	base, err = host.Start()
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	return base, ep, func() {
		if err := host.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

func TestEchoRoundTrip(t *testing.T) {
	base, ep, shutdown := startEchoHost(t)
	defer shutdown()

	client := NewClient(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	req := &soap.Message{
		Namespace: ep.Namespace,
		Local:     "echo",
		Fields:    map[string]string{"input": "ping"},
	}
	resp, err := client.Invoke(ctx, base+ep.Path, req)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if resp.Local != "echoResponse" {
		t.Errorf("response wrapper = %q, want echoResponse", resp.Local)
	}
	if v, _ := resp.Field("input"); v != "ping" {
		t.Errorf("echoed value = %q, want ping", v)
	}
}

func TestUnknownOperationFaults(t *testing.T) {
	base, ep, shutdown := startEchoHost(t)
	defer shutdown()

	client := NewClient(nil)
	ctx := context.Background()
	_, err := client.Invoke(ctx, base+ep.Path, &soap.Message{
		Namespace: ep.Namespace, Local: "bogus",
	})
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("expected SOAP fault, got %v", err)
	}
	if fault.Code != soap.FaultClient {
		t.Errorf("fault code = %q, want %q", fault.Code, soap.FaultClient)
	}
}

func TestUnknownPathIs404(t *testing.T) {
	base, _, shutdown := startEchoHost(t)
	defer shutdown()
	resp, err := http.Post(base+"/no/such/service", soap.ContentType, strings.NewReader("<x/>"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestGETRejected(t *testing.T) {
	base, ep, shutdown := startEchoHost(t)
	defer shutdown()
	resp, err := http.Get(base + ep.Path)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}

func TestMalformedEnvelopeFaults(t *testing.T) {
	base, ep, shutdown := startEchoHost(t)
	defer shutdown()
	resp, err := http.Post(base+ep.Path, soap.ContentType, strings.NewReader("not xml"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500 (SOAP 1.1 fault binding)", resp.StatusCode)
	}
}

func TestFromWSDLRejectsZeroOperations(t *testing.T) {
	cls, _ := typesys.JavaCatalog().Lookup(typesys.JavaResponse)
	doc, err := framework.NewJBossWSServer().Publish(services.ForClass(cls))
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if _, err := FromWSDL(doc); err == nil {
		t.Error("zero-operation WSDL must not deploy — the unusable-WSDL finding, live")
	}
}

func TestConcurrentInvocations(t *testing.T) {
	base, ep, shutdown := startEchoHost(t)
	defer shutdown()

	client := NewClient(nil)
	ctx := context.Background()
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &soap.Message{
				Namespace: ep.Namespace,
				Local:     "echo",
				Fields:    map[string]string{"input": strings.Repeat("x", i+1)},
			}
			resp, err := client.Invoke(ctx, base+ep.Path, req)
			if err != nil {
				errs[i] = err
				return
			}
			if v, _ := resp.Field("input"); len(v) != i+1 {
				errs[i] = errors.New("wrong echo length")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("invocation %d: %v", i, err)
		}
	}
}

func TestShutdownIdempotentOnFreshHost(t *testing.T) {
	h := NewHost()
	if err := h.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown of unstarted host: %v", err)
	}
}

func TestDeployCollisionIsError(t *testing.T) {
	h := NewHost()
	if err := h.Deploy(&Endpoint{Path: "/svc", Namespace: "urn:a", Operations: map[string]string{"op": "opResponse"}}); err != nil {
		t.Fatalf("first deploy: %v", err)
	}
	err := h.Deploy(&Endpoint{Path: "/svc", Namespace: "urn:b", Operations: map[string]string{"op": "opResponse"}})
	if !errors.Is(err, ErrPathCollision) {
		t.Fatalf("second deploy on same path: err = %v, want ErrPathCollision", err)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.endpoints["/svc"].Namespace != "urn:a" {
		t.Error("collision must keep the earlier endpoint, not silently replace it")
	}
}

func TestWSDLDiscoveryEndpoint(t *testing.T) {
	base, ep, shutdown := startEchoHost(t)
	defer shutdown()

	resp, err := http.Get(base + ep.Path + "?wsdl")
	if err != nil {
		t.Fatalf("get ?wsdl: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "wsdl:definitions") {
		t.Errorf("?wsdl did not return a description:\n%s", body)
	}
}

// TestDiscoveryFlow is the full end-to-end loop: fetch the WSDL over
// HTTP, run a client framework's artifact generation on the fetched
// bytes, then invoke the live operation — all five steps of the
// paper's Fig. 1 against one deployment.
func TestDiscoveryFlow(t *testing.T) {
	base, ep, shutdown := startEchoHost(t)
	defer shutdown()

	resp, err := http.Get(base + ep.Path + "?wsdl")
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	fetched, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	client := framework.NewMetroClient()
	gen := framework.Generate(client, fetched)
	if gen.Failed() || gen.Unit == nil {
		t.Fatalf("artifact generation from fetched WSDL failed: %v", gen.Issues)
	}
	if diags := client.Verify(gen.Unit); len(diags) != 0 {
		t.Fatalf("verification: %v", diags)
	}
	port := gen.Unit.PortClass()
	if port == nil || len(port.Methods) == 0 {
		t.Fatal("no invocable proxy method")
	}

	soapClient := NewClient(nil)
	req := &soap.Message{
		Namespace: ep.Namespace,
		Local:     port.Methods[0].Name,
		Fields:    map[string]string{"input": "discovered"},
	}
	got, err := soapClient.Invoke(context.Background(), base+ep.Path, req)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if v, _ := got.Field("input"); v != "discovered" {
		t.Errorf("echo = %q", v)
	}
}
