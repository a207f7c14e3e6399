package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
	"unicode/utf8"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
)

// ErrAborted reports a connection the server dropped mid-exchange
// before a complete response could be read.
var ErrAborted = errors.New("transport: connection aborted")

// maxResponseBytes is the response read budget shared by Client and
// LocalBridge. Client reads at most one byte past it, LocalBridge
// stores at most the budget itself; either way a longer response is
// refused with errReadBudget before any parse.
const maxResponseBytes = 1 << 20

// maxRequestBytes is the request read budget shared by Host and
// Sniffer: a longer request body is cut off at it (readBody), and the
// sniffer flags the cut request as truncated.
const maxRequestBytes = 1 << 20

// errReadBudget is the typed refusal of a response longer than
// maxResponseBytes.
func errReadBudget() error {
	return &soap.DecodeError{
		Reason: fmt.Sprintf("response exceeds the %d-byte read budget", maxResponseBytes)}
}

// HTTPError is the typed transport error for an HTTP response whose
// status code contradicts success: a non-2xx status whose body is not
// a SOAP fault envelope. It covers both plain-text error pages (the
// 404/405 http.Error bodies that used to surface as a confusing
// "malformed envelope" decode error) and — the status-blind client
// bug — error statuses whose body happens to parse as a message.
type HTTPError struct {
	// Status is the HTTP status code.
	Status int
	// ContentType is the response's declared media type.
	ContentType string
	// Snippet is a bounded prefix of the response body, for diagnosis.
	Snippet string
}

// Error implements the error interface.
func (e *HTTPError) Error() string {
	if e.Snippet == "" {
		return fmt.Sprintf("transport: HTTP %d (%s)", e.Status, e.ContentType)
	}
	return fmt.Sprintf("transport: HTTP %d (%s): %s", e.Status, e.ContentType, e.Snippet)
}

// VersionMismatchError is the typed transport error for a response
// whose detected SOAP version contradicts the version the caller is
// pinned to: the other pure version, or a hybrid mixing both. It is
// the client-side face of strict-reject framework behavior, and is
// definitive (never retryable) — the peer will keep speaking the same
// version on every attempt.
type VersionMismatchError struct {
	// Want is the version the caller's codec speaks.
	Want soap.Version
	// Got is the version Detect assigned to the response.
	Got soap.Version
	// ContentType is the response's declared media type.
	ContentType string
}

// Error implements the error interface.
func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("transport: version mismatch: want %s, got %s (%s)",
		e.Want, e.Got, e.ContentType)
}

// snippet bounds a body prefix for HTTPError diagnostics. The cut
// backs up to a rune boundary so a multi-byte UTF-8 sequence spanning
// the limit is dropped whole rather than split — a byte-offset
// truncation would put invalid UTF-8 into error messages (and into
// every log and report that quotes them).
func snippet(body []byte) string {
	s := strings.TrimSpace(string(body))
	if len(s) > 120 {
		cut := 120
		for cut > 0 && !utf8.RuneStart(s[cut]) {
			cut--
		}
		s = s[:cut] + "..."
	}
	return s
}

// decodeResponse is the status-, version- and strictness-aware decode
// shared by Client and LocalBridge:
//
//   - a response whose detected version contradicts the pinned codec
//     is a *VersionMismatchError under StrictReject — the typed
//     refusal strict frameworks produce;
//   - a fault envelope is returned as *soap.Fault whatever the status
//     (the SOAP 1.1 binding sends faults with HTTP 500);
//   - a non-2xx status is an *HTTPError — even when the body parses as
//     a message, success is not success if the wire said otherwise;
//   - a 2xx body that fails to parse stays a decode error, stamped
//     with the detected version for diagnostics.
//
// Under LenientAccept the body is parsed flexibly (either version,
// hybrids included); under SilentCoerce it is parsed namespace-blind,
// reproducing the frameworks that turn hybrid faults into data. The
// body is scanned once for both the version gate and the parse.
func decodeResponse(codec soap.Codec, strict soap.Strictness, status int, contentType string, body []byte) (*soap.Message, error) {
	ok := status >= 200 && status <= 299
	if len(body) > maxResponseBytes {
		// The reader fetched one byte past the budget: the response is
		// oversized and necessarily incomplete. Reject it without paying
		// for a parse of megabytes of padding.
		return nil, errReadBudget()
	}
	scan := soap.Scan(body)
	detected := scan.Detect(contentType)
	if strict == soap.StrictReject && detected != soap.VersionUnknown && detected != codec.Version() {
		return nil, &VersionMismatchError{Want: codec.Version(), Got: detected, ContentType: contentType}
	}
	var msg *soap.Message
	var err error
	switch strict {
	case soap.LenientAccept:
		msg, err = scan.Flexible()
	case soap.SilentCoerce:
		msg, err = scan.Coerce()
	default:
		msg, err = codec.UnmarshalScanned(scan)
	}
	if err != nil {
		var c conditions
		c.walk(err)
		if c.fault != nil {
			return nil, c.fault
		}
		if !ok {
			return nil, &HTTPError{Status: status, ContentType: contentType, Snippet: snippet(body)}
		}
		if c.decode != nil && c.decode.Version == soap.VersionUnknown {
			c.decode.Version = detected
		}
		return nil, fmt.Errorf("decode response (HTTP %d): %w", status, err)
	}
	if !ok {
		return nil, &HTTPError{Status: status, ContentType: contentType, Snippet: snippet(body)}
	}
	return msg, nil
}

// RetryPolicy bounds and paces invocation retries: a deadline over the
// whole invocation, a capped number of attempts, and exponential
// backoff between them. The Sleep hook keeps the policy deterministic
// and testable: a fake clock slots into it.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts; values below 2 mean
	// a single attempt (no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles
	// per retry. Zero means no pause.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff when positive.
	MaxDelay time.Duration
	// Deadline, when positive, bounds the whole invocation (all
	// attempts and backoffs) via a derived context.
	Deadline time.Duration
	// Sleep, when non-nil, replaces the real timer between attempts.
	Sleep func(ctx context.Context, d time.Duration) error
}

// maxAttempts normalizes the attempt budget; a nil policy means one.
func (p *RetryPolicy) maxAttempts() int {
	if p == nil || p.MaxAttempts < 2 {
		return 1
	}
	return p.MaxAttempts
}

// backoff computes the pause after a failed attempt (1-based).
func (p *RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	return d
}

// sleep pauses between attempts, honoring the Sleep hook and context.
func (p *RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retryable reports whether an invocation error may succeed on a
// fresh attempt. SOAP faults and client-side HTTP errors (4xx) are
// definitive answers from the peer; server errors, aborted
// connections, malformed bodies and network failures are transient
// wire conditions worth retrying.
func Retryable(err error) bool {
	_, retry := classify(err)
	return retry
}

// errClass is the meter class of a failed attempt, indexing
// invokeMeters.errs.
type errClass uint8

const (
	classFault   errClass = iota // a *soap.Fault: transport.errors.fault
	classHTTP                    // an *HTTPError: transport.errors.http
	classDecode                  // a *soap.DecodeError: transport.errors.decode
	classVersion                 // a *VersionMismatchError: transport.errors.version
	classAborted                 // ErrAborted: transport.errors.aborted
	classOther                   // the rest: transport.errors.other
)

// conditions records the typed conditions an error tree holds: its
// first *soap.Fault and *soap.DecodeError, and the status of its first
// *HTTPError. Finding them in one walk needs none of the heap-allocated
// targets errors.As takes.
type conditions struct {
	fault                                *soap.Fault
	decode                               *soap.DecodeError
	http, version, aborted, eof, network bool
	status                               int
}

// walk visits an error tree in the order errors.As does: each error,
// then what it wraps, depth first.
func (c *conditions) walk(err error) {
	for err != nil {
		switch e := err.(type) {
		case *soap.Fault:
			if c.fault == nil {
				c.fault = e
			}
		case *HTTPError:
			if !c.http {
				c.http, c.status = true, e.Status
			}
		case *VersionMismatchError:
			c.version = true
		case *soap.DecodeError:
			if c.decode == nil {
				c.decode = e
			}
		case net.Error: // *url.Error is one too
			c.network = true
		}
		c.aborted = c.aborted || err == ErrAborted
		c.eof = c.eof || err == io.ErrUnexpectedEOF
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				c.walk(e)
			}
			return
		default:
			return
		}
	}
}

// classify walks a failed attempt's error tree once and returns its
// meter class, the first condition it holds in the order fault, HTTP,
// version, decode, aborted, and whether a fresh attempt may succeed
// (see Retryable), where a version mismatch outranks an HTTP status.
func classify(err error) (errClass, bool) {
	var c conditions
	c.walk(err)
	switch {
	case c.fault != nil:
		return classFault, false
	case c.http:
		return classHTTP, c.status >= 500 && !c.version
	case c.version:
		return classVersion, false
	case c.decode != nil:
		return classDecode, true
	case c.aborted:
		return classAborted, true
	}
	return classOther, c.eof || c.network
}

// invokeMeters caches one registry's transport instruments so the
// per-attempt hot path pays atomic operations only. A nil *invokeMeters
// (no registry configured) is a no-op.
type invokeMeters struct {
	reg      *obs.Registry
	latency  *obs.Histogram // transport.invoke.seconds, per attempt
	attempts *obs.Counter   // transport.attempts
	retries  *obs.Counter   // transport.retries (attempts beyond the first)
	// errs counts failed attempts by class (transport.errors.<class>):
	// what the wire surfaced, the "fault detections" the robustness
	// taxonomy keys on.
	errs [classOther + 1]*obs.Counter
}

// newInvokeMeters resolves the instruments; nil registry → nil meters.
func newInvokeMeters(reg *obs.Registry) *invokeMeters {
	if reg == nil {
		return nil
	}
	m := &invokeMeters{
		reg:      reg,
		latency:  reg.Histogram("transport.invoke.seconds"),
		attempts: reg.Counter("transport.attempts"),
		retries:  reg.Counter("transport.retries"),
	}
	for class, name := range []string{"fault", "http", "decode", "version", "aborted", "other"} {
		m.errs[class] = reg.Counter("transport.errors." + name)
	}
	return m
}

// record folds one attempt's latency and number into the meters.
func (m *invokeMeters) record(start time.Time, n int) {
	if m == nil {
		return
	}
	m.latency.Observe(m.reg.Since(start))
	m.attempts.Inc()
	if n > 1 {
		m.retries.Inc()
	}
}

// now reads the meters' clock; the zero time when metering is off.
func (m *invokeMeters) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return m.reg.Now()
}

// invokeWithRetry drives one attempt function under a policy. The
// final error is the last attempt's (a deadline hit during backoff
// surfaces the invocation error, not the context error).
func invokeWithRetry(ctx context.Context, m *invokeMeters, p *RetryPolicy,
	attempt func(ctx context.Context, n int) (*soap.Message, error)) (*soap.Message, error) {
	if p != nil && p.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
		defer cancel()
	}
	budget := p.maxAttempts()
	var err error
	for n := 1; n <= budget; n++ {
		var msg *soap.Message
		start := m.now()
		msg, err = attempt(ctx, n)
		m.record(start, n)
		if err == nil {
			return msg, nil
		}
		class, retry := classify(err)
		if m != nil {
			m.errs[class].Inc()
		}
		if n == budget || !retry {
			return nil, err
		}
		if ctx.Err() != nil || p.sleep(ctx, p.backoff(n)) != nil {
			return nil, err
		}
	}
	return nil, err
}
