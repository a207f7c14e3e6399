package transport

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
)

// LocalBridge invokes an HTTP SOAP handler in-process, without binding
// a network listener. The full handler path still executes (request
// construction, dispatch, fault mapping), so behaviour is identical to
// the networked path minus the socket. The communication-step
// campaign extension uses this bridge to drive tens of thousands of
// invocations cheaply — optionally through a Sniffer or fault
// injector middleware.
type LocalBridge struct {
	handler http.Handler
	retry   *RetryPolicy
	meters  *invokeMeters
	codec   soap.Codec      // nil means soap.V11
	strict  soap.Strictness // zero value is StrictReject
}

// Local returns an in-process bridge to the host. The host does not
// need to be started.
func (h *Host) Local() *LocalBridge { return NewLocalBridge(h) }

// NewLocalBridge builds a bridge over any SOAP-speaking handler
// (typically a Host, or middleware wrapping one).
func NewLocalBridge(h http.Handler) *LocalBridge { return &LocalBridge{handler: h} }

// WithHandler returns a copy of the bridge, with its retry policy,
// meters, codec and strictness, that invokes h: a per-cell middleware
// over a bridge configured once per stage.
func (b *LocalBridge) WithHandler(h http.Handler) *LocalBridge {
	cp := *b
	cp.handler = h
	return &cp
}

// WithRetry returns a copy of the bridge that invokes under the given
// retry policy, mirroring Client.WithRetry.
func (b *LocalBridge) WithRetry(p *RetryPolicy) *LocalBridge {
	cp := *b
	cp.retry = p
	return &cp
}

// WithObs returns a copy of the bridge that records invoke latency,
// attempts, retries and error classes, mirroring Client.WithObs.
func (b *LocalBridge) WithObs(reg *obs.Registry) *LocalBridge {
	cp := *b
	cp.meters = newInvokeMeters(reg)
	return &cp
}

// WithCodec returns a copy of the bridge pinned to an envelope
// version. The default is soap.V11, which keeps the historical wire
// format byte for byte.
func (b *LocalBridge) WithCodec(c soap.Codec) *LocalBridge {
	cp := *b
	cp.codec = c
	return &cp
}

// WithStrictness returns a copy of the bridge that treats
// version-mismatched responses per the given framework model; the
// default is soap.StrictReject, mirroring Client.WithStrictness.
func (b *LocalBridge) WithStrictness(s soap.Strictness) *LocalBridge {
	cp := *b
	cp.strict = s
	return &cp
}

// Invoke sends a request message to the endpoint path and returns the
// response message. SOAP faults are returned as *soap.Fault errors and
// non-2xx responses as *HTTPError, mirroring Client.Invoke.
func (b *LocalBridge) Invoke(ctx context.Context, path string, req *soap.Message) (*soap.Message, error) {
	codec := b.codec
	if codec == nil {
		codec = soap.V11
	}
	body, err := codec.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	// The path is parsed once per Invoke: the first attempt's request
	// owns the parsed URL, and a retry gets its own copy.
	target, err := url.Parse(path)
	if err != nil {
		return nil, fmt.Errorf("build request: %w", err)
	}
	contentType, action := codec.ContentType(""), codec.UsesActionHeader()
	return invokeWithRetry(ctx, b.meters, b.retry, func(ctx context.Context, n int) (*soap.Message, error) {
		// Every attempt sends the whole body afresh; Sniffer and Host
		// read it in place (readBody).
		u := target
		if n > 1 {
			cp := *target
			u = &cp
		}
		httpReq := newLocalRequest(ctx, u, body, contentType, action)
		b.retry.annotate(n, httpReq.Header)

		// The capture enforces the read budget while the handler writes,
		// so an oversized response is never held in full.
		rec := NewCapture(maxResponseBytes)
		defer rec.release()
		if err := b.serve(rec, httpReq); err != nil {
			return nil, err
		}
		if rec.Overflowed() {
			return nil, errReadBudget()
		}
		return decodeResponse(codec, b.strict, rec.Status(), rec.Header().Get("Content-Type"), rec.Body())
	})
}

// serve runs the handler, mapping an http.ErrAbortHandler panic — the
// stdlib convention for "drop the connection mid-response", which a
// real http.Server swallows by closing the socket — to the same
// ErrAborted a networked client would observe.
func (b *LocalBridge) serve(w http.ResponseWriter, r *http.Request) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				err = ErrAborted
				return
			}
			panic(rec)
		}
	}()
	b.handler.ServeHTTP(w, r)
	return nil
}

// localParts is the per-attempt storage of an in-process request,
// allocated as one: its body and its header values.
type localParts struct {
	body localBody
	vals [2]string
}

// newLocalRequest builds one attempt's in-process POST directly: the
// request http.NewRequestWithContext would build for target, with
// ContentLength set and no GetBody, and one header map sized for its
// values — Content-Type, and SOAPAction when the codec uses it.
func newLocalRequest(ctx context.Context, target *url.URL, body []byte, contentType string, action bool) *http.Request {
	p := &localParts{body: localBody{data: body}, vals: [2]string{contentType, `""`}}
	h := make(http.Header, len(p.vals))
	h["Content-Type"] = p.vals[0:1:1]
	if action {
		h[soapActionHeader] = p.vals[1:2:2]
	}
	req := http.Request{
		Method:        http.MethodPost,
		URL:           target,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          &p.body,
		ContentLength: int64(len(body)),
		Host:          target.Host,
	}
	return req.WithContext(ctx)
}

// soapActionHeader is the SOAPAction header name in canonical form,
// which net/http would otherwise rebuild on every Set and Get.
var soapActionHeader = http.CanonicalHeaderKey("SOAPAction")

// localBody is the request body of an in-process exchange: the
// marshalled envelope, which readBody hands over without a copy. Any
// other reader drains it as an ordinary stream; the bytes are shared
// read-only by bridge, middleware and host.
type localBody struct {
	data []byte
	off  int
}

func (b *localBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *localBody) Close() error { return nil }

// readBody reads a request body within the maxRequestBytes budget: the
// first maxRequestBytes bytes, and whether the body ran past them. An
// in-process body hands over its unread bytes in place; any other body
// is read through a reader one byte past the budget, so truncation is
// seen, not guessed.
func readBody(r *http.Request) ([]byte, bool, error) {
	if lb, ok := r.Body.(*localBody); ok {
		rest := lb.data[lb.off:]
		lb.off = len(lb.data)
		if len(rest) > maxRequestBytes {
			return rest[:maxRequestBytes], true, nil
		}
		return rest, false, nil
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if len(data) > maxRequestBytes {
		return data[:maxRequestBytes], true, err
	}
	return data, false, err
}
