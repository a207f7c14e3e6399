package transport

import (
	"errors"
	"net/http"
	"sync"
)

// errCaptureFull is what a bounded Capture answers a write past its
// limit with — the in-process analogue of a client that stopped
// reading and closed the connection.
var errCaptureFull = errors.New("transport: response exceeds the capture limit")

// Capture is an in-memory http.ResponseWriter for in-process
// exchanges: it records the status, headers and body a handler writes,
// with the implicit-200 and media-type sniffing semantics of net/http.
// A bounded capture keeps at most its limit of body bytes: the first
// write past the limit marks it Overflowed, is refused, and nothing
// more is stored, so a runaway handler costs the caller at most the
// limit in memory. The capture never reuses its buffer: the slice
// Body returns stays valid after the exchange.
type Capture struct {
	header      http.Header
	status      int
	wroteHeader bool
	body        []byte
	limit       int
	overflow    bool
}

// NewCapture returns a capture keeping at most limit body bytes;
// limit <= 0 keeps every byte.
func NewCapture(limit int) *Capture { return &Capture{limit: limit} }

var _ http.ResponseWriter = (*Capture)(nil)

// headerMaps recycles the header maps of released captures. A cleared
// map keeps its slot group, so a handler's Content-Type lands in a
// recycled map without allocating the map or its group again.
var headerMaps = sync.Pool{New: func() any { return make(http.Header) }}

// Header implements http.ResponseWriter.
func (c *Capture) Header() http.Header {
	if c.header == nil {
		c.header = headerMaps.Get().(http.Header)
	}
	return c.header
}

// release hands the header map back for reuse once the exchange's
// status, headers and body have been read; the capture is not used
// afterwards. The header values and the body stay valid.
func (c *Capture) release() {
	if c.header != nil {
		clear(c.header)
		headerMaps.Put(c.header)
		c.header = nil
	}
}

// WriteHeader implements http.ResponseWriter; only the first status
// counts.
func (c *Capture) WriteHeader(status int) {
	if !c.wroteHeader {
		c.status, c.wroteHeader = status, true
	}
}

// Write implements http.ResponseWriter.
func (c *Capture) Write(p []byte) (int, error) {
	if !c.wroteHeader {
		// Like net/http: a body written without WriteHeader implies 200,
		// and an undeclared media type is sniffed from its first bytes.
		h := c.Header()
		if _, ok := h["Content-Type"]; !ok && h.Get("Transfer-Encoding") == "" {
			h.Set("Content-Type", http.DetectContentType(p))
		}
		c.WriteHeader(http.StatusOK)
	}
	if c.overflow {
		return 0, errCaptureFull
	}
	need := len(c.body) + len(p)
	if c.limit > 0 {
		if need > c.limit {
			c.overflow = true
			return 0, errCaptureFull
		}
		if need > cap(c.body) {
			// Grow by doubling, but never past the limit.
			grown := make([]byte, len(c.body), min(max(2*cap(c.body), need), c.limit))
			copy(grown, c.body)
			c.body = grown
		}
	}
	c.body = append(c.body, p...)
	return len(p), nil
}

// Status returns the recorded status: an implicit 200 when the handler
// never called WriteHeader, as net/http answers.
func (c *Capture) Status() int {
	if !c.wroteHeader {
		return http.StatusOK
	}
	return c.status
}

// Body returns the stored body bytes.
func (c *Capture) Body() []byte { return c.body }

// Overflowed reports whether the handler wrote past the limit; the
// body is then incomplete.
func (c *Capture) Overflowed() bool { return c.overflow }

// WriteHeaderTo starts forwarding a captured response: it copies the
// captured headers onto w, drops Content-Length (the forwarded body may
// differ in length), declares contentType and writes status. The
// caller writes the body.
func (c *Capture) WriteHeaderTo(w http.ResponseWriter, status int, contentType string) {
	for k, v := range c.header {
		w.Header()[k] = v
	}
	w.Header().Del("Content-Length")
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
}
