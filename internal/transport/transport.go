// Package transport implements the Communication and Execution steps
// of the web service inter-operation lifecycle (steps 4 and 5 of the
// paper's Fig. 1) — the extension the paper announces as future work.
//
// A Host deploys the echo services a server framework published and
// serves them over real HTTP on a loopback listener, or in process to
// a handler chain. A Client invokes a deployed operation by exchanging
// SOAP envelopes with the endpoint, completing the round trip that the
// first three (statically tested) steps enable. It is one type with
// two ways to move an attempt's bytes — served straight into a handler
// (NewLocalBridge, WithHandler) or sent through an *http.Client
// (NewClient) — that share the envelope, the headers, the read budget,
// the decode, the meters and the retries. The campaign's wire axes run
// in process; a test-side oracle runs them over loopback HTTP and
// requires the same matrices, journals and counters.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"wsinterop/internal/soap"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/xsd"
)

// FieldSpec describes one expected payload field of an operation: the
// leaf-level view of the wrapper element's children (document/literal)
// or the message parts (rpc/literal).
type FieldSpec struct {
	Name string
	// Type is the field's declared type; XSD built-ins get lexical
	// validation, everything else is treated as opaque content.
	Type xsd.QName
	// Required reports whether the field must be present.
	Required bool
}

// Endpoint is one deployed echo service.
type Endpoint struct {
	// Path is the HTTP path the service is served at.
	Path string
	// Namespace is the service target namespace.
	Namespace string
	// Operations maps operation name → response wrapper local name.
	Operations map[string]string
	// Inputs maps operation name → expected payload fields; when
	// present the host validates incoming payloads against it (the
	// Execution step's deserialization checks).
	Inputs map[string][]FieldSpec
	// Definitions is the typed description the endpoint was derived
	// from. The host renders it with wsdl.Marshal at each GET
	// <path>?wsdl — the discovery convention every framework of the
	// study supports — so an endpoint whose description nobody asks for
	// never holds its bytes. Nil serves no description (404).
	Definitions *wsdl.Definitions
}

// SampleValue returns a lexically valid sample for a field, carrying
// the payload string for opaque (non-built-in) content.
func SampleValue(spec FieldSpec, payload string) string {
	if spec.Type.Space != xsd.NamespaceXSD {
		return payload
	}
	switch spec.Type.Local {
	case "int", "long", "short", "byte", "integer",
		"unsignedByte", "unsignedShort", "unsignedInt", "unsignedLong":
		return "42"
	case "boolean":
		return "true"
	case "float", "double", "decimal":
		return "1.5"
	case "dateTime":
		return "2014-06-23T10:00:00Z"
	case "date":
		return "2014-06-23"
	case "time":
		return "10:00:00"
	case "base64Binary":
		return "AA=="
	case "hexBinary":
		return "00ff"
	case "duration":
		return "P1D"
	default:
		return payload
	}
}

// FromWSDL derives the endpoint dispatch table from a service
// description. It returns an error when the description declares no
// operations — a live deployment of the "unusable WSDL" finding. The
// endpoint keeps d as its Definitions, which the host renders at
// ?wsdl, so the caller must not change d once the endpoint serves.
func FromWSDL(d *wsdl.Definitions) (*Endpoint, error) {
	if d.OperationCount() == 0 {
		return nil, fmt.Errorf("transport: description %q declares no operations", d.Name)
	}
	ep := &Endpoint{
		Path:      "/" + strings.ReplaceAll(d.Name, " ", ""),
		Namespace: d.TargetNamespace,
		Operations: make(map[string]string,
			d.OperationCount()),
		Inputs:      make(map[string][]FieldSpec, d.OperationCount()),
		Definitions: d,
	}
	for _, pt := range d.PortTypes {
		for _, op := range pt.Operations {
			ep.Operations[op.Name] = op.Name + "Response"
			ep.Inputs[op.Name] = inputSpecs(d, op)
		}
	}
	return ep, nil
}

// inputSpecs derives the expected payload fields of one operation,
// flattening anonymous envelope nesting to the leaf level (the shape
// soap.Message carries).
func inputSpecs(d *wsdl.Definitions, op wsdl.Operation) []FieldSpec {
	m := d.Message(op.Input.Message)
	if m == nil {
		return nil
	}
	// rpc/literal: one field per typed part, all required.
	if len(m.Parts) > 0 && m.Parts[0].Element.IsZero() {
		specs := make([]FieldSpec, 0, len(m.Parts))
		for _, p := range m.Parts {
			specs = append(specs, FieldSpec{Name: p.Name, Type: p.Type, Required: true})
		}
		return specs
	}
	// document/literal: the wrapper element's leaf children.
	if d.Types == nil || len(m.Parts) == 0 {
		return nil
	}
	el, ok := d.Types.Element(m.Parts[0].Element)
	if !ok || el.Inline == nil {
		return nil
	}
	var specs []FieldSpec
	var walk func(ct *xsd.ComplexType, ancestorsRequired bool)
	walk = func(ct *xsd.ComplexType, ancestorsRequired bool) {
		for i := range ct.Sequence {
			child := &ct.Sequence[i]
			required := ancestorsRequired && child.Occurs.Min > 0
			if child.Inline != nil {
				walk(child.Inline, required)
				continue
			}
			if child.Name == "" {
				continue // reference particles carry opaque content
			}
			specs = append(specs, FieldSpec{Name: child.Name, Type: child.Type, Required: required})
		}
	}
	walk(el.Inline, true)
	return specs
}

// validatePayload applies the Execution-step deserialization checks:
// required fields present, no unknown fields, lexically valid scalar
// values.
func validatePayload(specs []FieldSpec, fields map[string]string) error {
	if specs == nil {
		return nil
	}
	known := make(map[string]*FieldSpec, len(specs))
	for i := range specs {
		known[specs[i].Name] = &specs[i]
	}
	for name, value := range fields {
		spec, ok := known[name]
		if !ok {
			return fmt.Errorf("unexpected element %q in payload", name)
		}
		if !xsd.ValidLexical(spec.Type, value) {
			return fmt.Errorf("value %q is not a valid %s for element %q", value, spec.Type.Local, name)
		}
	}
	for i := range specs {
		if specs[i].Required {
			if _, ok := fields[specs[i].Name]; !ok {
				return fmt.Errorf("required element %q missing from payload", specs[i].Name)
			}
		}
	}
	return nil
}

// Host serves deployed services over HTTP on a loopback listener.
type Host struct {
	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	version   *VersionPolicy

	srv      *http.Server
	listener net.Listener
	done     chan struct{}
	serveErr error
}

// NewHost creates an empty host.
func NewHost() *Host {
	return &Host{endpoints: make(map[string]*Endpoint, 8)}
}

// VersionPolicy pins the envelope version a host speaks and declares
// how it treats a request whose detected version disagrees.
type VersionPolicy struct {
	// Codec is the version the host answers in.
	Codec soap.Codec
	// Strictness selects the mismatch behavior: StrictReject answers a
	// VersionMismatch fault, LenientAccept parses either version (and
	// hybrids) but answers natively, SilentCoerce parses namespace-
	// blind and mirrors the request's framing back — producing the
	// observably hybrid responses the version matrix measures.
	Strictness soap.Strictness
}

// SetVersionPolicy configures version handling; nil (the default)
// keeps the historical strict SOAP 1.1 behavior. Not safe to call
// concurrently with serving.
func (h *Host) SetVersionPolicy(p *VersionPolicy) { h.version = p }

// ErrPathCollision is wrapped by Deploy when two endpoints derive the
// same HTTP path (FromWSDL strips spaces from service names, so "My
// Service" and "MyService" collide). Silently replacing the earlier
// endpoint would make one of the two services unreachable without any
// trace in the results.
var ErrPathCollision = errors.New("transport: endpoint path already deployed")

// Deploy registers an endpoint. Deploying a path that is already
// serving a different endpoint is an error; the earlier endpoint is
// kept.
func (h *Host) Deploy(ep *Endpoint) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, taken := h.endpoints[ep.Path]; taken {
		return fmt.Errorf("%w: %s", ErrPathCollision, ep.Path)
	}
	h.endpoints[ep.Path] = ep
	return nil
}

// DeployWSDL derives an endpoint from a description and deploys it,
// serving the description, rendered per request, at GET <path>?wsdl.
func (h *Host) DeployWSDL(d *wsdl.Definitions) (*Endpoint, error) {
	ep, err := FromWSDL(d)
	if err != nil {
		return nil, err
	}
	if err := h.Deploy(ep); err != nil {
		return nil, err
	}
	return ep, nil
}

// Start binds a loopback listener and serves until Shutdown. It
// returns the base URL of the host.
func (h *Host) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	h.listener = ln
	h.done = make(chan struct{})
	h.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		defer close(h.done)
		if err := h.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			h.serveErr = err
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// Shutdown stops the host and waits for the serve goroutine to exit.
func (h *Host) Shutdown(ctx context.Context) error {
	if h.srv == nil {
		return nil
	}
	err := h.srv.Shutdown(ctx)
	<-h.done
	if err != nil {
		return err
	}
	return h.serveErr
}

var _ http.Handler = (*Host)(nil)

// ServeHTTP implements the SOAP 1.1 HTTP binding: POST with a textual
// XML body; faults use HTTP 500 as the binding requires.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	ep := h.endpoints[r.URL.Path]
	h.mu.RUnlock()

	// GET <path>?wsdl serves the description — the discovery
	// convention of every framework in the study.
	if r.Method == http.MethodGet {
		if ep == nil {
			http.NotFound(w, r)
			return
		}
		if _, ok := r.URL.Query()["wsdl"]; ok {
			if ep.Definitions == nil {
				// The client asked the right question of the right
				// endpoint; a 405 "accept POST (or GET ?wsdl)" here would
				// point at the method, not the real problem.
				http.Error(w, "no description published for this endpoint", http.StatusNotFound)
				return
			}
			raw, err := wsdl.Marshal(ep.Definitions)
			if err != nil {
				http.Error(w, "render description: "+err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			_, _ = w.Write(raw)
			return
		}
		http.Error(w, "SOAP endpoints accept POST (or GET ?wsdl)", http.StatusMethodNotAllowed)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoints accept POST only", http.StatusMethodNotAllowed)
		return
	}
	if ep == nil {
		http.NotFound(w, r)
		return
	}

	codec := soap.Codec(soap.V11)
	if h.version != nil && h.version.Codec != nil {
		codec = h.version.Codec
	}
	// respCT is the response framing; SilentCoerce mirrors mismatched
	// request framing back, making the hybrid observable on the wire.
	respCT := codec.ContentType("")

	body, _, err := readBody(r)
	if err != nil {
		writeFault(w, codec, respCT, &soap.Fault{Code: soap.FaultClient, String: "unreadable request body"})
		return
	}

	var msg *soap.Message
	scan := soap.Scan(body)
	if h.version == nil {
		msg, err = soap.V11.UnmarshalScanned(scan)
	} else {
		reqCT := r.Header.Get("Content-Type")
		detected := scan.Detect(reqCT)
		mismatch := detected != soap.VersionUnknown && detected != codec.Version()
		switch {
		case mismatch && h.version.Strictness == soap.StrictReject:
			writeFault(w, codec, respCT, &soap.Fault{
				Code:   codec.FaultCode(soap.FaultVersionMismatch),
				String: fmt.Sprintf("endpoint speaks %s, request detected as %s", codec.Version(), detected),
			})
			return
		case mismatch && h.version.Strictness == soap.SilentCoerce:
			msg, err = scan.Coerce()
			if reqCT != "" {
				respCT = reqCT
			}
		case mismatch: // LenientAccept
			msg, err = scan.Flexible()
		default:
			msg, err = codec.UnmarshalScanned(scan)
		}
	}
	if err != nil {
		writeFault(w, codec, respCT, &soap.Fault{Code: codec.FaultCode(soap.FaultClient), String: err.Error()})
		return
	}

	respLocal, ok := ep.Operations[msg.Local]
	if !ok {
		writeFault(w, codec, respCT, &soap.Fault{
			Code:   codec.FaultCode(soap.FaultClient),
			String: fmt.Sprintf("unknown operation %q", msg.Local),
		})
		return
	}
	if err := validatePayload(ep.Inputs[msg.Local], msg.Fields); err != nil {
		writeFault(w, codec, respCT, &soap.Fault{Code: codec.FaultCode(soap.FaultClient), String: err.Error()})
		return
	}

	// Execution step: the echo business logic returns the input.
	resp := &soap.Message{
		Namespace: ep.Namespace,
		Local:     respLocal,
		Fields:    msg.Fields,
	}
	out, err := codec.Marshal(resp)
	if err != nil {
		writeFault(w, codec, respCT, &soap.Fault{Code: codec.FaultCode(soap.FaultServer), String: err.Error()})
		return
	}
	w.Header().Set("Content-Type", respCT)
	if _, err := w.Write(out); err != nil {
		return // client went away; nothing to do
	}
}

// writeFault serializes a fault in the host's envelope version. SOAP
// 1.1 always uses HTTP 500; the 1.2 HTTP binding distinguishes Sender
// faults (400) from the rest (500).
func writeFault(w http.ResponseWriter, codec soap.Codec, contentType string, f *soap.Fault) {
	out, err := codec.MarshalFault(f)
	if err != nil {
		http.Error(w, f.Error(), http.StatusInternalServerError)
		return
	}
	status := http.StatusInternalServerError
	if codec.Version() == soap.Version12 && f.Code == soap.Fault12Sender {
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	_, _ = w.Write(out)
}
