package transport

import (
	"net/http"
	"sync"

	"wsinterop/internal/obs"
	"wsinterop/internal/wsi"
)

// Sniffer is HTTP middleware that captures every SOAP exchange passing
// through a handler and validates both directions against the WS-I
// message-level assertions (wsi.CheckMessage). It implements, on this
// reproduction's runtime, the sniffer-based conformance checking the
// paper's related work proposes: description-level compliance is
// checked statically in step 1, message-level compliance at steps 4–5.
type Sniffer struct {
	next    http.Handler
	checker *wsi.Checker
	// reg, when non-nil, receives exchange and violation counters.
	reg *obs.Registry

	mu        sync.Mutex
	exchanges []Exchange
	findings  []CapturedViolation
}

// CapturedViolation is one message-level finding with its direction.
type CapturedViolation struct {
	// Direction is "request" or "response".
	Direction string
	Violation wsi.Violation
	// Trace is the campaign cell's correlation ID, copied from the
	// request's X-Wsinterop-Trace header; empty for untraced traffic.
	Trace string
}

// Exchange is the per-pair capture record: one row per
// request/response observed, joinable to a campaign cell by trace ID
// even when the exchange produced no findings.
type Exchange struct {
	// Trace is the request's X-Wsinterop-Trace header value.
	Trace string
	// Status is the recorded response status; an implicit 200 when the
	// inner handler wrote a body (or nothing) without calling
	// WriteHeader.
	Status int
	// RequestViolations and ResponseViolations count the exchange's
	// message-level findings per direction.
	RequestViolations  int
	ResponseViolations int
	// ResponseBytes is how much of the response body the capture kept
	// and checked: all of it, or the read budget for a longer one.
	ResponseBytes int
}

// NewSniffer wraps a handler. A nil checker uses the default.
func NewSniffer(next http.Handler, checker *wsi.Checker) *Sniffer {
	if checker == nil {
		checker = wsi.NewChecker()
	}
	return &Sniffer{next: next, checker: checker}
}

// WithObs sets the registry receiving the sniffer's exchange and
// violation counters and returns the sniffer for chaining.
func (s *Sniffer) WithObs(reg *obs.Registry) *Sniffer {
	s.reg = reg
	return s
}

var _ http.Handler = (*Sniffer)(nil)

// recordingWriter captures the response for post-hoc validation. It
// keeps at most maxResponseBytes of the body, the budget a client
// reads, and marks a longer one truncated; every byte still reaches
// the wrapped writer. Writers come from recorders and go back once the
// response is checked: the checker keeps no slice of the bytes it
// reads (names are interned copies, findings formatted strings).
type recordingWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	body        []byte
	truncated   bool
}

// recorders pools the sniffer's response writers with their body
// buffers.
var recorders = sync.Pool{New: func() any { return new(recordingWriter) }}

// maxPooledRecording bounds the body buffer a recorder returns to the
// pool with: a rare oversized response is not kept alive by it.
const maxPooledRecording = 64 << 10

func (w *recordingWriter) WriteHeader(status int) {
	if !w.wroteHeader {
		w.status = status
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	// A handler that writes without WriteHeader gets the implicit 200
	// from net/http; record the same, or post-hoc validation would see
	// status 0 and misclassify the exchange.
	if !w.wroteHeader {
		w.status = http.StatusOK
		w.wroteHeader = true
	}
	if room := maxResponseBytes - len(w.body); len(p) > room {
		w.body = append(w.body, p[:room]...)
		w.truncated = true
	} else {
		w.body = append(w.body, p...)
	}
	return w.ResponseWriter.Write(p)
}

// Flush passes http.Flusher through to the wrapped writer, so a
// streaming handler behind the sniffer keeps working.
func (w *recordingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the recorded status, applying the implicit 200 for a
// handler that never wrote anything at all.
func (w *recordingWriter) Status() int {
	if !w.wroteHeader {
		return http.StatusOK
	}
	return w.status
}

// ServeHTTP implements http.Handler.
func (s *Sniffer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqBody, reqTruncated, err := readBody(r)
	// Hand the inner handler exactly the bytes the capture saw — also
	// on a read error, where the original body is a half-drained stream
	// that would otherwise be forwarded silently corrupted. The handler
	// then sees a cleanly truncated document and fails the exchange
	// explicitly (a malformed-envelope fault) instead of arbitrarily.
	r.Body = &localBody{data: reqBody}
	if err != nil {
		s.reg.Counter("sniffer.request.read_errors").Inc()
	}
	if reqTruncated {
		s.reg.Counter("sniffer.request.truncated").Inc()
	}
	reqReport := s.checker.CheckMessage(reqBody, wsi.MessageMeta{
		ContentType: r.Header.Get("Content-Type"),
		SOAPAction:  r.Header.Get(soapActionHeader),
		Truncated:   reqTruncated,
	})

	rec := recorders.Get().(*recordingWriter)
	rec.ResponseWriter = w
	s.next.ServeHTTP(rec, r)
	status, respBytes := rec.Status(), len(rec.body)
	respReport := s.checker.CheckMessage(rec.body, wsi.MessageMeta{
		ContentType: rec.Header().Get("Content-Type"),
		HTTPStatus:  status,
		Truncated:   rec.truncated,
	})
	if rec.truncated {
		s.reg.Counter("sniffer.response.truncated").Inc()
	}
	if cap(rec.body) <= maxPooledRecording {
		*rec = recordingWriter{body: rec.body[:0]}
		recorders.Put(rec)
	}

	trace := r.Header.Get(obs.TraceHeader)
	s.reg.Counter("sniffer.exchanges").Inc()
	s.reg.Counter("sniffer.violations").Add(int64(len(reqReport.Violations) + len(respReport.Violations)))

	s.mu.Lock()
	defer s.mu.Unlock()
	s.exchanges = append(s.exchanges, Exchange{
		Trace:              trace,
		Status:             status,
		RequestViolations:  len(reqReport.Violations),
		ResponseViolations: len(respReport.Violations),
		ResponseBytes:      respBytes,
	})
	for _, v := range reqReport.Violations {
		s.findings = append(s.findings, CapturedViolation{Direction: "request", Violation: v, Trace: trace})
	}
	for _, v := range respReport.Violations {
		s.findings = append(s.findings, CapturedViolation{Direction: "response", Violation: v, Trace: trace})
	}
}

// Exchanges reports how many request/response pairs were captured.
func (s *Sniffer) Exchanges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.exchanges)
}

// ExchangeLog returns a copy of the per-exchange capture records.
func (s *Sniffer) ExchangeLog() []Exchange {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Exchange(nil), s.exchanges...)
}

// Findings returns a copy of every captured violation.
func (s *Sniffer) Findings() []CapturedViolation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CapturedViolation(nil), s.findings...)
}
