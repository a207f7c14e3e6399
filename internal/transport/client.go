package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
)

// Client invokes deployed SOAP endpoints. An attempt's bytes move one
// of two ways, and nothing else differs between them:
//
//   - in process (NewLocalBridge, WithHandler): the request is served
//     straight into a handler — a Host, or middleware such as a Sniffer
//     or a fault injector wrapping one — whose response lands in a
//     bounded Capture, with no listener bound;
//   - over the network (NewClient): the request goes out through an
//     *http.Client and its response is read within the same budget.
//
// Both share the envelope, the URL parse, the headers, the read budget,
// the status-, version- and strictness-aware decode, the meters and
// the retry loop. The campaign's wire axes drive tens of thousands of
// exchanges in process; a test-side oracle replays them over loopback
// HTTP and requires the same results.
type Client struct {
	handler    http.Handler // in process when non-nil
	httpClient *http.Client // over the network otherwise
	retry      *RetryPolicy
	meters     *invokeMeters
	codec      soap.Codec      // nil means soap.V11
	strict     soap.Strictness // zero value is StrictReject
}

// NewClient creates a networked SOAP client. Pass nil to use a default
// HTTP client with a 10-second timeout.
func NewClient(hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{httpClient: hc}
}

// NewLocalBridge creates an in-process client over any SOAP-speaking
// handler: a Host, which need not be started, or middleware wrapping
// one.
func NewLocalBridge(h http.Handler) *Client { return &Client{handler: h} }

// WithHandler returns a copy of the client, with its retry policy,
// meters, codec and strictness, that invokes h in process: a per-cell
// middleware over a client configured once per stage.
func (c *Client) WithHandler(h http.Handler) *Client {
	cp := *c
	cp.handler = h
	return &cp
}

// WithRetry returns a copy of the client that invokes under the given
// retry policy.
func (c *Client) WithRetry(p *RetryPolicy) *Client {
	cp := *c
	cp.retry = p
	return &cp
}

// WithObs returns a copy of the client that records invoke latency,
// attempts, retries and error classes into the registry.
func (c *Client) WithObs(reg *obs.Registry) *Client {
	cp := *c
	cp.meters = newInvokeMeters(reg)
	return &cp
}

// WithCodec returns a copy of the client pinned to an envelope
// version: requests are framed per the codec's binding (Content-Type,
// SOAPAction vs action parameter) and responses are required to match
// it under the configured strictness. The default is soap.V11, which
// keeps the historical wire format byte for byte.
func (c *Client) WithCodec(codec soap.Codec) *Client {
	cp := *c
	cp.codec = codec
	return &cp
}

// WithStrictness returns a copy of the client that treats
// version-mismatched responses per the given framework model:
// StrictReject (default) surfaces a *VersionMismatchError,
// LenientAccept parses either version, SilentCoerce parses
// namespace-blind — reproducing the framework behaviors the version
// matrix measures.
func (c *Client) WithStrictness(s soap.Strictness) *Client {
	cp := *c
	cp.strict = s
	return &cp
}

// Invoke sends a request message to target — the endpoint's path in
// process, its URL over the network — and returns the response
// message. A SOAP fault is returned as a *soap.Fault error, a non-2xx
// response without a fault envelope as an *HTTPError, and a connection
// dropped before a complete response as ErrAborted. A configured
// RetryPolicy re-attempts transient failures (see Retryable).
func (c *Client) Invoke(ctx context.Context, target string, req *soap.Message) (*soap.Message, error) {
	codec := c.codec
	if codec == nil {
		codec = soap.V11
	}
	body, err := codec.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	// The target is parsed once per Invoke: the first attempt's request
	// owns the parsed URL, and a retry gets its own copy.
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("build request: %w", err)
	}
	contentType, action := codec.ContentType(""), codec.UsesActionHeader()
	return invokeWithRetry(ctx, c.meters, c.retry, func(ctx context.Context, n int) (*soap.Message, error) {
		// Every attempt sends the whole body afresh; Sniffer and Host
		// read an in-process body in place (readBody).
		attemptURL := u
		if n > 1 {
			cp := *u
			attemptURL = &cp
		}
		r := newRequest(ctx, attemptURL, body, contentType, action)
		if c.handler != nil {
			return c.serve(codec, r)
		}
		return c.roundTrip(codec, target, body, r)
	})
}

// serve runs one in-process attempt. The capture enforces the read
// budget while the handler writes, so an oversized response is never
// held in full.
func (c *Client) serve(codec soap.Codec, r *http.Request) (*soap.Message, error) {
	rec := NewCapture(maxResponseBytes)
	defer rec.Release()
	if err := serveHandler(c.handler, rec, r); err != nil {
		return nil, err
	}
	if rec.Overflowed() {
		return nil, errReadBudget()
	}
	return decodeResponse(codec, c.strict, rec.Status(), rec.Header().Get("Content-Type"), rec.Body())
}

// serveHandler runs a handler, mapping an http.ErrAbortHandler panic —
// the stdlib convention for "drop the connection mid-response", which
// a real http.Server answers by closing the socket — to ErrAborted,
// the error roundTrip reports for that closed socket.
func serveHandler(h http.Handler, w http.ResponseWriter, r *http.Request) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				err = ErrAborted
				return
			}
			panic(rec)
		}
	}()
	h.ServeHTTP(w, r)
	return nil
}

// roundTrip runs one networked attempt. The request keeps a GetBody,
// so net/http may resend a request it never wrote (a keep-alive
// connection the server had closed). One byte past the budget lets the
// decode tell an exactly-full response from an oversized one.
func (c *Client) roundTrip(codec soap.Codec, target string, body []byte, r *http.Request) (*soap.Message, error) {
	r.GetBody = func() (io.ReadCloser, error) { return &localBody{data: body}, nil }
	resp, err := c.httpClient.Do(r)
	if err != nil {
		return nil, fmt.Errorf("invoke %s: %w", target, dropped(err))
	}
	defer func() { _ = resp.Body.Close() }()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read response from %s: %w", target, dropped(err))
	}
	return decodeResponse(codec, c.strict, resp.StatusCode, resp.Header.Get("Content-Type"), respBody)
}

// dropped marks an error that says the server closed the connection
// before a complete response — an io.EOF from Do, an
// io.ErrUnexpectedEOF while reading the body — as ErrAborted, which is
// what serveHandler reports for the in-process abort. The wrapped
// error keeps the URL in the message.
func dropped(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %w", ErrAborted, err)
	}
	return err
}

// localParts is the per-attempt storage of a request, allocated as
// one: its body and its header values.
type localParts struct {
	body localBody
	vals [2]string
}

// newRequest builds one attempt's POST directly: the request
// http.NewRequestWithContext would build for target, with
// ContentLength set and no GetBody, and one header map sized for its
// values — Content-Type, and SOAPAction when the codec uses it.
func newRequest(ctx context.Context, target *url.URL, body []byte, contentType string, action bool) *http.Request {
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

// localBody is the request body of an exchange: the marshalled
// envelope, which readBody hands over without a copy in process. Any
// other reader — net/http writing it to a socket, too — drains it as
// an ordinary stream; the bytes are shared read-only by client,
// middleware and host.
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
