// Package faultinject implements a wire-level fault-injection harness
// for the Communication and Execution steps (4–5 of the paper's
// Fig. 1). An Injector is http.Handler middleware — composable with
// transport.Sniffer and drivable through transport.Client or
// transport.LocalBridge — that corrupts the response of the handler it
// wraps according to the fault it is armed with: truncated envelopes,
// non-XML error pages, wrong content types, empty or oversized bodies,
// duplicated or renamed payload children, delays, and connection
// aborts.
//
// An injector is per-exchange state: its owner arms it with a Fault
// before each invocation (Arm), and the injector counts the attempts
// it serves since (Attempts). The campaign's Robustness mode gives
// every (service × client) row its own injector, so concurrent rows
// never share one and the (server × client × fault) matrix is
// byte-identical at any worker count. A transient fault (Times > 0)
// fires on the first Times attempts only, modeling the recoverable
// glitches that retry policies exist for.
package faultinject

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
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

// Fault is one row of the robustness matrix: a named fault kind plus
// the conformance expectation the outcome classification keys on.
type Fault struct {
	// Name labels the matrix row.
	Name string
	// Kind selects the fault; the zero Kind injects nothing.
	Kind Kind
	// Times, when positive, fires the fault on the first Times attempts
	// only; zero fires it on every attempt.
	Times int
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
		{Name: "truncate", Kind: KindTruncate, MustError: true},
		{Name: "html-error", Kind: KindHTMLError, MustError: true},
		{Name: "status-500", Kind: KindStatus500, MustError: true},
		{Name: "wrong-content-type", Kind: KindWrongContentType, MustError: false},
		{Name: "empty-body", Kind: KindEmptyBody, MustError: true},
		{Name: "oversize", Kind: KindOversize, MustError: true},
		{Name: "dup-child", Kind: KindDuplicateChild, MustError: true},
		{Name: "rename-child", Kind: KindRenameChild, MustError: true},
		{Name: "delay", Kind: KindDelay, MustError: false},
		{Name: "abort", Kind: KindAbort, MustError: true},
		{Name: "abort-once", Kind: KindAbort, Times: 1, MustError: false},
	}
}

// oversizePad exceeds the 1 MiB body budget transport clients read,
// guaranteeing the padded envelope is cut off mid-document.
const oversizePad = 1<<20 + 1024

// oversizeFiller is the oversizePad spaces every KindOversize response
// carries: built once, on first use, and only ever read.
var oversizeFiller = sync.OnceValue(func() []byte { return bytes.Repeat([]byte(" "), oversizePad) })

// delayPause is the KindDelay pause.
const delayPause = time.Millisecond

// Injector is the fault-injecting middleware. An unarmed injector, or
// one armed with the zero Fault, passes every request through
// untouched, so it can stay permanently composed into a handler chain.
// Arm is not synchronized with ServeHTTP: arm a networked injector
// before its server starts.
type Injector struct {
	next http.Handler
	// Sleep overrides the KindDelay sleeper. The campaign installs a
	// no-op here to keep the robustness matrix wall-clock-free.
	Sleep func(d time.Duration)
	// Obs, when non-nil, counts fired faults (faultinject.injected and
	// one faultinject.injected.<kind> counter per kind). Set it before
	// Arm, which resolves the armed kind's counters.
	Obs *obs.Registry
	// codec identifies the envelope version of the wrapped handler's
	// responses; KindOversize pads inside its closing Envelope tag. Nil
	// means SOAP 1.1, the historical wire format.
	codec soap.Codec
	// fault is the armed fault; attempts counts the requests served
	// since Arm, and counted holds the counters a fired fault of its
	// kind increments.
	fault    Fault
	attempts atomic.Int64
	counted  [2]*obs.Counter
}

// kindCounters names the per-kind counter of every kind the catalog
// injects. Arm resolves only these, so arbitrary kinds never mint
// counter names.
var kindCounters = func() map[Kind]string {
	names := make(map[Kind]string)
	for _, f := range Catalog() {
		names[f.Kind] = "faultinject.injected." + string(f.Kind)
	}
	return names
}()

// New wraps a handler with an injector.
func New(next http.Handler) *Injector { return &Injector{next: next} }

// WithCodec declares the envelope version the wrapped handler speaks
// and returns the injector for chaining. It mutates in place; call it
// before serving.
func (i *Injector) WithCodec(c soap.Codec) *Injector {
	i.codec = c
	return i
}

// Arm sets the fault the following requests get, zeroes the attempt
// count and resolves the counters the fault's kind fires.
func (i *Injector) Arm(f Fault) {
	i.fault = f
	i.attempts.Store(0)
	i.counted = [2]*obs.Counter{}
	if name, ok := kindCounters[f.Kind]; ok {
		i.counted = [2]*obs.Counter{i.Obs.Counter("faultinject.injected"), i.Obs.Counter(name)}
	}
}

// Attempts returns the number of requests served since Arm.
func (i *Injector) Attempts() int { return int(i.attempts.Load()) }

// record counts one fired fault of the armed kind.
func (i *Injector) record() {
	for _, c := range i.counted {
		c.Inc()
	}
}

var _ http.Handler = (*Injector)(nil)

// ServeHTTP implements http.Handler. An unknown kind answers 500 and
// is not counted: arbitrary kinds must not mint counter names.
func (i *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	attempt := i.attempts.Add(1)
	kind := i.fault.Kind
	if kind == "" || (i.fault.Times > 0 && attempt > int64(i.fault.Times)) {
		i.next.ServeHTTP(w, r)
		return
	}
	switch kind {
	case KindAbort:
		i.record()
		// The stdlib convention for dropping the connection: a real
		// http.Server closes the socket, LocalBridge maps it to
		// transport.ErrAborted.
		panic(http.ErrAbortHandler)
	case KindDelay:
		i.record()
		if i.Sleep != nil {
			i.Sleep(delayPause)
		} else {
			time.Sleep(delayPause)
		}
		i.next.ServeHTTP(w, r)
	case KindTruncate, KindHTMLError, KindStatus500, KindWrongContentType,
		KindEmptyBody, KindOversize, KindDuplicateChild, KindRenameChild:
		i.record()
		rec := transport.NewCapture(0)
		i.next.ServeHTTP(rec, r)
		status, ctype, body := i.mutate(kind, rec.Status(), rec.Header().Get("Content-Type"), rec.Body())
		rec.WriteHeaderTo(w, status, ctype)
		rec.Release()
		if kind == KindOversize {
			i.writeOversize(w, body)
			return
		}
		_, _ = w.Write(body)
	default:
		http.Error(w, "faultinject: unknown fault kind "+string(kind), http.StatusInternalServerError)
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

// mutateChild duplicates (with a corrupted value) or renames the first
// payload child. A body with no children — or a non-envelope body —
// is returned unchanged, making the fault a no-op for that exchange.
func mutateChild(body []byte, duplicate bool) []byte {
	for start := 0; start < len(body); {
		end := len(body)
		if i := bytes.IndexByte(body[start:], '\n'); i >= 0 {
			end = start + i
		}
		indent, name, value, ok := parseChild(body[start:end])
		if !ok {
			start = end + 1
			continue
		}
		// A duplicate keeps the child and repeats it with an "x" appended
		// to its value; a rename appends an "X" to its name. Either grows
		// the body by at most the line plus the name and one byte.
		out := append(make([]byte, 0, len(body)+(end-start)+len(name)+1), body[:start]...)
		nameSuffix, valueSuffix := "X", ""
		if duplicate {
			out = append(append(out, body[start:end]...), '\n')
			nameSuffix, valueSuffix = "", "x"
		}
		out = append(append(append(append(out, indent...), "<m:"...), name...), nameSuffix...)
		out = append(append(append(append(out, '>'), value...), valueSuffix...), "</m:"...)
		out = append(append(append(out, name...), nameSuffix...), '>')
		return append(out, body[end:]...)
	}
	return body
}

// parseChild matches one line of the canonical soap.Marshal wire format
// against a single-line payload child: one or more spaces, then
// "<m:name>value</m:close>" to the line's end, where name and close are
// runs of [A-Za-z0-9_.-]. The wrapper element spans multiple lines and
// carries an attribute, so only genuine children match.
func parseChild(line []byte) (indent, name, value []byte, ok bool) {
	trimmed := bytes.TrimLeft(line, " ")
	elem, found := bytes.CutPrefix(trimmed, []byte("<m:"))
	// The closing tag is the line's last "</m:": nothing after it may
	// hold another.
	open, tag := bytes.IndexByte(elem, '>'), bytes.LastIndex(elem, []byte("</m:"))
	if len(trimmed) == len(line) || !found || open < 0 || tag <= open || elem[len(elem)-1] != '>' ||
		!isName(elem[:open]) || !isName(elem[tag+len("</m:"):len(elem)-1]) {
		return nil, nil, nil, false
	}
	return line[:len(line)-len(trimmed)], elem[:open], elem[open+1 : tag], true
}

// isName reports whether b is a payload child's name: a non-empty run
// of [A-Za-z0-9_.-].
func isName(b []byte) bool {
	for _, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '.' || c == '-') {
			return false
		}
	}
	return len(b) > 0
}
