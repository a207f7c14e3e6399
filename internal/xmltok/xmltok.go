// Package xmltok is a zero-copy pull tokenizer over a byte slice for
// the conservative subset of XML the SOAP codecs write, with
// encoding/xml as the fallback for everything else.
//
// The Scanner accepts:
//
//   - ASCII input;
//   - the exact declaration the codecs write, at offset 0
//     (`<?xml version="1.0" encoding="UTF-8"?>`);
//   - start, end and empty-element tags whose names are ASCII NCNames
//     with at most one prefix;
//   - quoted attribute values of printable ASCII without '<' or '&';
//   - text without '&', "]]>" or control characters other than tab
//     and newline.
//
// On any other input it declines: comments, CDATA sections, DOCTYPE
// and other processing instructions, entity and character references,
// '\r', non-ASCII bytes, a mismatched end tag, end of input inside a
// tag or with elements still open, and element names with the xml or
// xmlns prefix (which encoding/xml resolves specially). Walk reruns a
// consumer's whole walk from byte 0 on NewXMLStream when the scanner
// declines its input, so every error, error text and construct outside
// the subset stays exactly encoding/xml's. Within the subset the
// Scanner reports the tokens encoding/xml's Decoder.Token reports,
// names resolved as its translate does; FuzzTokenizerMatchesXML pins
// that.
package xmltok

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"sync"
)

// Kind is a token's type: the three encoding/xml tokens the walks read.
type Kind uint8

const (
	StartElement Kind = iota + 1
	EndElement
	CharData
)

// Token is one start tag, end tag or run of character data. Name is
// resolved as encoding/xml resolves it; Text is set for CharData only
// and, from a Scanner, points into the input.
type Token struct {
	Kind Kind
	Name xml.Name
	Text []byte
}

// Stream is a token source a walk reads: a Scanner, or the
// encoding/xml fallback NewXMLStream returns.
type Stream interface {
	// Next returns the next token, or false once the stream has ended.
	Next() (Token, bool)
	// Err reports why the stream ended: io.EOF for a clean end of
	// input.
	Err() error
}

// ErrDeclined is a Scanner's Err for input outside the accepted
// subset.
var ErrDeclined = errors.New("xmltok: input outside the accepted subset")

// declaration is the one processing instruction the Scanner accepts:
// the one the codecs write, xml.Header without its newline.
const declaration = `<?xml version="1.0" encoding="UTF-8"?>`

// Interning bounds: names up to internMaxLen bytes are cached per
// Scanner, up to internMax of them, so a pooled scanner reading
// recurring traffic allocates no names while hostile input cannot grow
// the cache without limit.
const (
	internMax    = 512
	internMaxLen = 64
)

// Pooled scanners keep at most these capacities, so one deeply nested
// input does not pin a large stack in the pool.
const (
	keepOpen  = 64
	keepBinds = 64
)

// frame is one open element: its raw qualified name as an input range,
// for end-tag matching, its resolved name, and the binding stack's
// length before its own namespace declarations.
type frame struct {
	raw   []byte
	name  xml.Name
	binds int
}

// binding is one namespace declaration in scope; prefix is empty for
// the default namespace.
type binding struct {
	prefix []byte
	uri    string
}

// Scanner tokenizes one input at a time; Reset starts the next. It is
// not safe for concurrent use.
type Scanner struct {
	data       []byte
	pos        int
	err        error
	pendingEnd bool // an empty-element tag's EndElement comes next
	open       []frame
	binds      []binding
	names      map[string]string
}

// Walk runs walk over data on a pooled Scanner. When the scanner
// declines data, that result is dropped and walk runs again from byte 0
// on NewXMLStream(data), so the result is always the one encoding/xml's
// tokens produce. walk must read until Next reports false.
func Walk[T any](data []byte, walk func(Stream) T) T {
	s := pool.Get().(*Scanner)
	s.Reset(data)
	v := walk(s)
	declined := s.Declined()
	release(s)
	if declined {
		return walk(NewXMLStream(data))
	}
	return v
}

// NewScanner returns a scanner over data.
func NewScanner(data []byte) *Scanner {
	s := &Scanner{names: make(map[string]string)}
	s.Reset(data)
	return s
}

// pool recycles Walk's scanners, and with them their name caches.
var pool = sync.Pool{New: func() any { return NewScanner(nil) }}

// release returns a scanner to the pool, dropping its input.
func release(s *Scanner) {
	s.Reset(nil)
	if cap(s.open) > keepOpen {
		s.open = nil
	}
	if cap(s.binds) > keepBinds {
		s.binds = nil
	}
	pool.Put(s)
}

// Reset starts tokenizing data from its first byte.
func (s *Scanner) Reset(data []byte) {
	s.data, s.pos, s.err, s.pendingEnd = data, 0, nil, false
	s.open, s.binds = s.open[:0], s.binds[:0]
}

// Err is io.EOF after a clean end of input, ErrDeclined after a
// decline, and nil while tokens remain.
func (s *Scanner) Err() error { return s.err }

// Declined reports whether the scanner gave up on its input; the
// walk must then run again on NewXMLStream.
func (s *Scanner) Declined() bool { return s.err == ErrDeclined }

func (s *Scanner) decline() (Token, bool) {
	s.err = ErrDeclined
	return Token{}, false
}

// Next implements Stream.
func (s *Scanner) Next() (Token, bool) {
	if s.err != nil {
		return Token{}, false
	}
	if s.pendingEnd {
		s.pendingEnd = false
		return s.close(), true
	}
	data := s.data
	if s.pos == 0 && bytes.HasPrefix(data, []byte(declaration)) {
		s.pos = len(declaration)
	}
	if s.pos >= len(data) {
		if len(s.open) > 0 {
			return s.decline()
		}
		s.err = io.EOF
		return Token{}, false
	}
	if data[s.pos] != '<' {
		return s.text()
	}
	if s.pos+1 >= len(data) {
		return s.decline()
	}
	switch data[s.pos+1] {
	case '/':
		return s.endTag()
	case '?', '!':
		return s.decline()
	}
	return s.startTag()
}

// textByte marks the bytes a text run may hold: printable ASCII but
// '&' and '<', plus tab and newline.
var textByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '&' && c != '<'
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// attrByte marks the bytes a quoted attribute value may hold besides
// its quote: printable ASCII but '&' and '<'.
var attrByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '&' && c != '<'
	}
	return t
}()

// text reads character data up to the next '<' or the end of input.
func (s *Scanner) text() (Token, bool) {
	data, start := s.data, s.pos
	i := start
	for ; i < len(data) && textByte[data[i]]; i++ {
		if data[i] == '>' && i-start >= 2 && data[i-1] == ']' && data[i-2] == ']' {
			return s.decline()
		}
	}
	if i < len(data) && data[i] != '<' {
		return s.decline()
	}
	s.pos = i
	return Token{Kind: CharData, Text: data[start:i]}, true
}

func isNameStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isNameByte(c byte) bool {
	return isNameStart(c) || '0' <= c && c <= '9' || c == '-' || c == '.'
}

// qname reads a qualified name at i: an NCName, or two joined by one
// colon. It returns the end of the name and the colon's index (-1 for
// none), or ok false when the bytes there are not such a name or the
// name runs on into bytes encoding/xml would read as part of it.
func (s *Scanner) qname(i int) (end, colon int, ok bool) {
	data := s.data
	colon = -1
	if i >= len(data) || !isNameStart(data[i]) {
		return 0, 0, false
	}
	for i++; i < len(data); i++ {
		c := data[i]
		if c == ':' {
			if colon >= 0 || i+1 >= len(data) || !isNameStart(data[i+1]) {
				return 0, 0, false
			}
			colon = i
			continue
		}
		if !isNameByte(c) {
			if c >= 0x80 {
				return 0, 0, false
			}
			break
		}
	}
	return i, colon, true
}

func (s *Scanner) skipSpace(i int) int {
	for i < len(s.data) && (s.data[i] == ' ' || s.data[i] == '\t' || s.data[i] == '\n') {
		i++
	}
	return i
}

// startTag reads a start or empty-element tag at s.pos.
func (s *Scanner) startTag() (Token, bool) {
	data := s.data
	nameAt := s.pos + 1
	nameEnd, colon, ok := s.qname(nameAt)
	if !ok {
		return s.decline()
	}
	raw := data[nameAt:nameEnd]
	var prefix, local []byte
	if colon < 0 {
		local = raw
		if string(local) == "xmlns" {
			return s.decline()
		}
	} else {
		prefix, local = data[nameAt:colon], data[colon+1:nameEnd]
		if string(prefix) == "xml" || string(prefix) == "xmlns" {
			return s.decline()
		}
	}
	nbinds := len(s.binds)
	empty := false
	i := nameEnd
	for {
		i = s.skipSpace(i)
		if i >= len(data) {
			return s.decline()
		}
		if data[i] == '>' {
			i++
			break
		}
		if data[i] == '/' {
			if i+1 >= len(data) || data[i+1] != '>' {
				return s.decline()
			}
			i += 2
			empty = true
			break
		}
		attrAt := i
		attrEnd, attrColon, ok := s.qname(i)
		if !ok {
			return s.decline()
		}
		i = s.skipSpace(attrEnd)
		if i >= len(data) || data[i] != '=' {
			return s.decline()
		}
		i = s.skipSpace(i + 1)
		if i >= len(data) || (data[i] != '"' && data[i] != '\'') {
			return s.decline()
		}
		quote := data[i]
		valAt := i + 1
		for i = valAt; i < len(data) && data[i] != quote; i++ {
			if !attrByte[data[i]] {
				return s.decline()
			}
		}
		if i >= len(data) {
			return s.decline()
		}
		value := data[valAt:i]
		i++
		// Namespace declarations, as encoding/xml applies them before
		// resolving the element's own name.
		switch {
		case attrColon < 0 && string(data[attrAt:attrEnd]) == "xmlns":
			s.binds = append(s.binds, binding{prefix: data[attrAt:attrAt], uri: s.intern(value)})
		case attrColon >= 0 && string(data[attrAt:attrColon]) == "xmlns":
			s.binds = append(s.binds, binding{prefix: data[attrColon+1 : attrEnd], uri: s.intern(value)})
		}
	}
	name := xml.Name{Local: s.intern(local)}
	if uri, ok := s.lookup(prefix); ok {
		name.Space = uri
	} else if colon >= 0 {
		// An unbound prefix stays in Space as written.
		name.Space = s.intern(prefix)
	}
	s.open = append(s.open, frame{raw: raw, name: name, binds: nbinds})
	s.pos = i
	s.pendingEnd = empty
	return Token{Kind: StartElement, Name: name}, true
}

// lookup resolves a prefix (empty for the default namespace) against
// the declarations in scope, innermost and last-declared first.
func (s *Scanner) lookup(prefix []byte) (string, bool) {
	for i := len(s.binds) - 1; i >= 0; i-- {
		if bytes.Equal(s.binds[i].prefix, prefix) {
			return s.binds[i].uri, true
		}
	}
	return "", false
}

// endTag reads an end tag at s.pos; it must close the innermost open
// element by the same raw name.
func (s *Scanner) endTag() (Token, bool) {
	data := s.data
	nameAt := s.pos + 2
	nameEnd, _, ok := s.qname(nameAt)
	if !ok || len(s.open) == 0 || !bytes.Equal(data[nameAt:nameEnd], s.open[len(s.open)-1].raw) {
		return s.decline()
	}
	i := s.skipSpace(nameEnd)
	if i >= len(data) || data[i] != '>' {
		return s.decline()
	}
	s.pos = i + 1
	return s.close(), true
}

// close pops the innermost element. Its end tag resolves with the
// element's own declarations still in scope, so it carries the start
// tag's resolved name; then those declarations go out of scope.
func (s *Scanner) close() Token {
	f := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	s.binds = s.binds[:f.binds]
	return Token{Kind: EndElement, Name: f.name}
}

// intern returns b as a string, from the scanner's cache when it has
// been seen before.
func (s *Scanner) intern(b []byte) string {
	if v, ok := s.names[string(b)]; ok {
		return v
	}
	v := string(b)
	if len(b) <= internMaxLen && len(s.names) < internMax {
		s.names[v] = v
	}
	return v
}

// xmlStream is the encoding/xml fallback behind NewXMLStream.
type xmlStream struct {
	dec *xml.Decoder
	err error
}

// NewXMLStream tokenizes data with encoding/xml, reporting its start
// tags, end tags and character data as Tokens and skipping the rest.
// Text is valid until the next call to Next.
func NewXMLStream(data []byte) Stream {
	return &xmlStream{dec: xml.NewDecoder(bytes.NewReader(data))}
}

func (x *xmlStream) Next() (Token, bool) {
	if x.err != nil {
		return Token{}, false
	}
	for {
		tok, err := x.dec.Token()
		if err != nil {
			x.err = err
			return Token{}, false
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return Token{Kind: StartElement, Name: t.Name}, true
		case xml.EndElement:
			return Token{Kind: EndElement, Name: t.Name}, true
		case xml.CharData:
			return Token{Kind: CharData, Text: t}, true
		}
	}
}

func (x *xmlStream) Err() error { return x.err }
