// Package faultinject implements a wire-level fault-injection harness
// for the Communication and Execution steps (4–5 of the paper's
// Fig. 1). An Injector is http.Handler middleware — composable with
// transport.Sniffer and drivable through transport.Client or
// transport.LocalBridge — that corrupts the response of the handler it
// wraps according to a per-request directive: truncated envelopes,
// non-XML error pages, wrong content types, empty or oversized bodies,
// duplicated or renamed payload children, delays, and connection
// aborts.
//
// Faults are selected per request through the HeaderFault request
// header rather than injector state, so one injector instance serves
// any number of concurrent invocations deterministically — the
// property the campaign's Robustness mode relies on to produce a
// byte-identical (server × client × fault) matrix at any worker
// count. Transient faults ("kind;times=N") read the attempt number
// from HeaderAttempt, which a transport.RetryPolicy stamps via its
// Annotate hook; the fault fires only on the first N attempts,
// modeling the recoverable glitches that retry policies exist for.
package faultinject

import (
	"bytes"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// Request headers steering the injector.
const (
	// HeaderFault carries the fault directive: a Kind, optionally
	// suffixed with ";times=N" to fire on the first N attempts only.
	HeaderFault = "X-Inject-Fault"
	// HeaderAttempt carries the 1-based attempt number of a retrying
	// client; absent means attempt 1.
	HeaderAttempt = "X-Inject-Attempt"
)

// Kind identifies one injectable wire-level fault.
type Kind string

// The fault kinds of the catalog.
const (
	// KindTruncate cuts the response body in half mid-envelope.
	KindTruncate Kind = "truncate"
	// KindHTMLError replaces the response with a 500 HTML error page —
	// the classic misconfigured-gateway body that is not XML at all.
	KindHTMLError Kind = "html-error"
	// KindStatus500 keeps the valid response body but rewrites the
	// status to 500 — the trap a status-blind client walks into.
	KindStatus500 Kind = "status-500"
	// KindWrongContentType serves the valid envelope with a non-XML
	// Content-Type.
	KindWrongContentType Kind = "wrong-content-type"
	// KindEmptyBody serves a 200 response with no body.
	KindEmptyBody Kind = "empty-body"
	// KindOversize pads the envelope past the client's read budget, so
	// a bounded read truncates it.
	KindOversize Kind = "oversize"
	// KindDuplicateChild duplicates the first payload child with a
	// corrupted value.
	KindDuplicateChild Kind = "dup-child"
	// KindRenameChild renames the first payload child.
	KindRenameChild Kind = "rename-child"
	// KindDelay pauses before responding.
	KindDelay Kind = "delay"
	// KindAbort drops the connection without a response.
	KindAbort Kind = "abort"
)

// Fault is one row of the robustness matrix: a named directive plus
// the conformance expectation the outcome classification keys on.
type Fault struct {
	// Name labels the matrix row.
	Name string
	// Directive is the HeaderFault value selecting the fault.
	Directive string
	// MustError reports whether a conforming client has to surface an
	// error for this fault — the wire carried an unambiguous failure
	// or corruption signal. A success against a MustError fault is a
	// wrong-success cell.
	MustError bool
}

// Catalog returns the fault matrix rows in their fixed presentation
// order. The final entry is the transient variant of abort: it fires
// on the first attempt only, so a client with a retry policy recovers.
func Catalog() []Fault {
	return []Fault{
		{Name: "truncate", Directive: string(KindTruncate), MustError: true},
		{Name: "html-error", Directive: string(KindHTMLError), MustError: true},
		{Name: "status-500", Directive: string(KindStatus500), MustError: true},
		{Name: "wrong-content-type", Directive: string(KindWrongContentType), MustError: false},
		{Name: "empty-body", Directive: string(KindEmptyBody), MustError: true},
		{Name: "oversize", Directive: string(KindOversize), MustError: true},
		{Name: "dup-child", Directive: string(KindDuplicateChild), MustError: true},
		{Name: "rename-child", Directive: string(KindRenameChild), MustError: true},
		{Name: "delay", Directive: string(KindDelay), MustError: false},
		{Name: "abort", Directive: string(KindAbort), MustError: true},
		{Name: "abort-once", Directive: string(KindAbort) + ";times=1", MustError: false},
	}
}

// oversizePad exceeds the 1 MiB body budget transport clients read,
// guaranteeing the padded envelope is cut off mid-document.
const oversizePad = 1<<20 + 1024

// oversizeFiller is the oversizePad spaces every KindOversize response
// carries: built once, on first use, and only ever read.
var oversizeFiller = sync.OnceValue(func() []byte { return bytes.Repeat([]byte(" "), oversizePad) })

// Injector is the fault-injecting middleware. A request without the
// HeaderFault directive passes through untouched, so the injector can
// stay permanently composed into a handler chain.
type Injector struct {
	next http.Handler
	// Delay is the KindDelay pause; zero means one millisecond.
	Delay time.Duration
	// Sleep overrides the KindDelay sleeper. The campaign installs a
	// no-op here to keep the robustness matrix wall-clock-free.
	Sleep func(d time.Duration)
	// Obs, when non-nil, counts fired faults (faultinject.injected and
	// one faultinject.injected.<kind> counter per kind).
	Obs *obs.Registry
	// codec identifies the envelope version of the wrapped handler's
	// responses; KindOversize pads inside its closing Envelope tag. Nil
	// means SOAP 1.1, the historical wire format.
	codec soap.Codec
}

// New wraps a handler with an injector.
func New(next http.Handler) *Injector { return &Injector{next: next} }

// WithCodec declares the envelope version the wrapped handler speaks
// and returns the injector for chaining. It mutates in place; call it
// before serving.
func (i *Injector) WithCodec(c soap.Codec) *Injector {
	i.codec = c
	return i
}

// record counts one fired fault.
func (i *Injector) record(kind Kind) {
	i.Obs.Counter("faultinject.injected").Inc()
	i.Obs.Counter("faultinject.injected." + string(kind)).Inc()
}

var _ http.Handler = (*Injector)(nil)

// parseDirective splits "kind" / "kind;times=N". times 0 means every
// attempt.
func parseDirective(s string) (Kind, int) {
	kind, rest, ok := strings.Cut(s, ";")
	if !ok {
		return Kind(kind), 0
	}
	if v, found := strings.CutPrefix(rest, "times="); found {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return Kind(kind), n
		}
	}
	return Kind(kind), 0
}

// ServeHTTP implements http.Handler.
func (i *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	directive := r.Header.Get(HeaderFault)
	if directive == "" {
		i.next.ServeHTTP(w, r)
		return
	}
	kind, times := parseDirective(directive)
	attempt := 1
	if n, err := strconv.Atoi(r.Header.Get(HeaderAttempt)); err == nil {
		attempt = n
	}
	if times > 0 && attempt > times {
		i.next.ServeHTTP(w, r)
		return
	}
	switch kind {
	case KindAbort, KindDelay, KindTruncate, KindHTMLError, KindStatus500,
		KindWrongContentType, KindEmptyBody, KindOversize,
		KindDuplicateChild, KindRenameChild:
		i.record(kind)
	}
	switch kind {
	case KindAbort:
		// The stdlib convention for dropping the connection: a real
		// http.Server closes the socket, LocalBridge maps it to
		// transport.ErrAborted.
		panic(http.ErrAbortHandler)
	case KindDelay:
		d := i.Delay
		if d == 0 {
			d = time.Millisecond
		}
		if i.Sleep != nil {
			i.Sleep(d)
		} else {
			time.Sleep(d)
		}
		i.next.ServeHTTP(w, r)
	case KindTruncate, KindHTMLError, KindStatus500, KindWrongContentType,
		KindEmptyBody, KindOversize, KindDuplicateChild, KindRenameChild:
		rec := transport.NewCapture(0)
		i.next.ServeHTTP(rec, r)
		status, ctype, body := i.mutate(kind, rec.Status(), rec.Header().Get("Content-Type"), rec.Body())
		rec.WriteHeaderTo(w, status, ctype)
		if kind == KindOversize {
			i.writeOversize(w, body)
			return
		}
		_, _ = w.Write(body)
	default:
		http.Error(w, "faultinject: unknown fault directive "+directive, http.StatusInternalServerError)
	}
}

// mutate applies one body-level fault to a recorded response.
func (i *Injector) mutate(kind Kind, status int, ctype string, body []byte) (int, string, []byte) {
	switch kind {
	case KindTruncate:
		return status, ctype, body[:len(body)/2]
	case KindHTMLError:
		page := "<html><head><title>502 Bad Gateway</title></head>" +
			"<body><h1>Bad Gateway</h1><p>upstream produced an invalid response</p></body></html>\n"
		return http.StatusInternalServerError, "text/html; charset=utf-8", []byte(page)
	case KindStatus500:
		return http.StatusInternalServerError, ctype, body
	case KindWrongContentType:
		return status, "application/octet-stream", body
	case KindEmptyBody:
		return status, ctype, nil
	case KindDuplicateChild:
		return status, ctype, mutateChild(body, true)
	case KindRenameChild:
		return status, ctype, mutateChild(body, false)
	}
	return status, ctype, body
}

// writeOversize streams body with the shared filler spliced in before
// the closing Envelope tag, so a budget-bounded reader truncates the
// document itself, not ignorable trailing bytes; a body without the
// tag gets the filler appended. The closing tag comes from the
// injector's codec, so a 1.2 handler's envelopes are padded inside the
// document too. Nothing is copied, and writing stops at the first
// error: a reader past its budget refuses the rest.
func (i *Injector) writeOversize(w http.ResponseWriter, body []byte) {
	codec := i.codec
	if codec == nil {
		codec = soap.V11
	}
	cut := bytes.LastIndex(body, []byte(codec.EnvelopeClose()))
	if cut < 0 {
		cut = len(body)
	}
	for _, part := range [][]byte{body[:cut], oversizeFiller(), body[cut:]} {
		if _, err := w.Write(part); err != nil {
			return
		}
	}
}

// childLine matches one single-line payload child of the canonical
// soap.Marshal wire format: indented "<m:name>value</m:name>". The
// wrapper element spans multiple lines and carries an attribute, so
// only genuine children match.
var childLine = regexp.MustCompile(`(?m)^( +)<m:([A-Za-z0-9_.-]+)>(.*)</m:[A-Za-z0-9_.-]+>$`)

// mutateChild duplicates (with a corrupted value) or renames the first
// payload child. A body with no children — or a non-envelope body —
// is returned unchanged, making the fault a no-op for that exchange.
func mutateChild(body []byte, duplicate bool) []byte {
	loc := childLine.FindSubmatchIndex(body)
	if loc == nil {
		return body
	}
	indent := string(body[loc[2]:loc[3]])
	name := string(body[loc[4]:loc[5]])
	value := string(body[loc[6]:loc[7]])
	var repl string
	if duplicate {
		orig := string(body[loc[0]:loc[1]])
		repl = orig + "\n" + indent + "<m:" + name + ">" + value + "x</m:" + name + ">"
	} else {
		repl = indent + "<m:" + name + "X>" + value + "</m:" + name + "X>"
	}
	out := make([]byte, 0, len(body)+len(repl))
	out = append(out, body[:loc[0]]...)
	out = append(out, repl...)
	return append(out, body[loc[1]:]...)
}
