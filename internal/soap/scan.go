package soap

import (
	"encoding/xml"
	"errors"
	"io"
	"strconv"

	"wsinterop/internal/xmltok"
)

// Depths the scan stores. The deepest element any reader consults is
// a SOAP 1.2 fault's Value or Text (Envelope, Body, Fault, Code,
// Value), so elements below keepDepth are walked but not kept; and
// only elements at textDepth or below carry values (payload children,
// fault fields), so shallower character data — the indentation
// between envelope tags — is never copied.
const (
	keepDepth = 5
	textDepth = 4
	// maxNesting caps the lenient parsers' documents: the echo wire
	// format is four levels deep, so anything approaching the cap is
	// hostile input, not SOAP.
	maxNesting = 32
)

var (
	errTooDeep = errors.New("document nested too deeply")
	errNoRoot  = errors.New("no document element")
)

// versionSignals is the evidence Detect collects from one message.
type versionSignals struct {
	envelope bool   // root element is an Envelope
	rootNS   string // root element namespace
	fault11  bool   // fault markup in 1.1 shape (faultcode/faultstring)
	fault12  bool   // fault markup in 1.2 shape or namespace (Code/Reason)
}

// node is one kept element. Links are indexes into Scanned.nodes, -1
// for none, so the tree costs one growing slice.
type node struct {
	name                        xml.Name
	text                        string
	more                        []byte // text spread over several CharData tokens, joined at the end tag
	firstKid, lastKid, nextSibl int32
}

// Scanned is one token walk over a message: the version evidence
// Detect reads, the elements down to keepDepth of every root with
// their direct character data, and where the stream broke off. Detect,
// the strict codecs and the lenient parsers all read it, so a message
// that is classified and then parsed is walked once.
type Scanned struct {
	sig   versionSignals
	nodes []node
	// firstRoot and lastRoot index the first and last root elements:
	// the strict parse reads the first, the lenient parsers the last.
	firstRoot, lastRoot int32
	// firstRootClosed is set once the first root's end tag is read;
	// the strict parse ignores whatever follows it.
	firstRootClosed bool
	// tooDeep is set when an element opened past maxNesting before
	// the walk ended.
	tooDeep bool
	// err ended the walk: io.EOF for a clean end of input.
	err error
}

// Scan walks data once and records what every reader of the message
// needs. The walk runs on the xmltok scanner; an input the scanner
// declines is walked again from byte 0 on encoding/xml, so every
// outcome and error text is encoding/xml's.
func Scan(data []byte) *Scanned {
	return xmltok.Walk(data, scan)
}

// scan is the one walk, over either token source.
func scan(src xmltok.Stream) *Scanned {
	s := &Scanned{firstRoot: -1, lastRoot: -1, nodes: make([]node, 0, 8)}
	var open [keepDepth]int32 // kept element open at each depth
	depth := 0
	// Detect's walk state: it stops for good at a root that is not an
	// Envelope, while the walk goes on for the parsers.
	detecting, inBody, faultDepth := true, false, 0
	for {
		t, ok := src.Next()
		if !ok {
			// Elements still open here are never read: the strict parse
			// needs the first root closed, the lenient parsers a clean end.
			s.err = src.Err()
			return s
		}
		switch t.Kind {
		case xmltok.StartElement:
			if depth >= maxNesting {
				s.tooDeep = true
			}
			depth++
			if detecting {
				detecting = s.sig.start(t.Name, depth, &inBody, &faultDepth)
			}
			if depth > keepDepth {
				continue
			}
			i := int32(len(s.nodes))
			s.nodes = append(s.nodes, node{name: t.Name, firstKid: -1, lastKid: -1, nextSibl: -1})
			open[depth-1] = i
			if depth == 1 {
				if s.firstRoot < 0 {
					s.firstRoot = i
				}
				s.lastRoot = i
				continue
			}
			p := &s.nodes[open[depth-2]]
			if p.lastKid < 0 {
				p.firstKid = i
			} else {
				s.nodes[p.lastKid].nextSibl = i
			}
			p.lastKid = i
		case xmltok.EndElement:
			if detecting {
				if faultDepth != 0 && depth == faultDepth {
					faultDepth = 0
				}
				if depth == 2 {
					inBody = false
				}
			}
			if depth >= textDepth && depth <= keepDepth {
				s.nodes[open[depth-1]].join()
			}
			if depth == 1 {
				s.firstRootClosed = true
			}
			depth--
		case xmltok.CharData:
			if depth >= textDepth && depth <= keepDepth {
				s.nodes[open[depth-1]].addText(t.Text)
			}
		}
	}
}

// start folds one start tag into the version evidence, mirroring the
// classifier's historical walk. It reports whether detection goes on:
// a root that is not an Envelope ends it.
func (sig *versionSignals) start(name xml.Name, depth int, inBody *bool, faultDepth *int) bool {
	switch {
	case depth == 1:
		if name.Local != "Envelope" {
			return false
		}
		sig.envelope = true
		sig.rootNS = name.Space
	case depth == 2:
		*inBody = name.Local == "Body"
	case depth == 3 && *inBody && name.Local == "Fault":
		switch name.Space {
		case NamespaceEnvelope:
			*faultDepth = depth
		case NamespaceEnvelope12:
			*faultDepth = depth
			sig.fault12 = true
		}
	case *faultDepth != 0 && depth == *faultDepth+1:
		switch name.Local {
		case "faultcode", "faultstring":
			if name.Space == "" || name.Space == NamespaceEnvelope {
				sig.fault11 = true
			}
		case "Code", "Reason":
			if name.Space == NamespaceEnvelope || name.Space == NamespaceEnvelope12 {
				sig.fault12 = true
			}
		}
	}
	return true
}

// addText appends one CharData token's text. The common single-token value
// costs one string; later tokens accumulate in a byte slice so a value
// split by comments or child elements stays linear in its length.
func (n *node) addText(t []byte) {
	switch {
	case n.more != nil:
		n.more = append(n.more, t...)
	case n.text == "":
		n.text = string(t)
	default:
		n.more = append([]byte(n.text), t...)
	}
}

func (n *node) join() {
	if n.more != nil {
		n.text, n.more = string(n.more), nil
	}
}

// kid returns the first child of i named local in any namespace, or -1.
func (s *Scanned) kid(i int32, local string) int32 {
	for k := s.nodes[i].firstKid; k >= 0; k = s.nodes[k].nextSibl {
		if s.nodes[k].name.Local == local {
			return k
		}
	}
	return -1
}

// kidCount returns the number of element children of i.
func (s *Scanned) kidCount(i int32) int {
	n := 0
	for k := s.nodes[i].firstKid; k >= 0; k = s.nodes[k].nextSibl {
		n++
	}
	return n
}

// Detect classifies the scanned message; see the package-level Detect.
func (s *Scanned) Detect(contentType string) Version {
	return s.sig.verdict(contentType)
}

// strict is the strict codecs' parse: gate on the bytes-only verdict,
// then read the first root as the envelope of version v. The gate comes
// first because the structure check alone is lenient about nested
// machinery: a 1.2-namespace Fault inside a 1.1 envelope would read as
// a *successful* message with Local="Fault" — exactly the
// silent-mishandle class the version matrix measures.
//
// Like the reflective decoder it replaced, it checks the root's name
// before its namespace, ignores anything after the first root, lets
// repeated Body elements accumulate and repeated Fault elements fill
// one fault, and names the payload after the last non-Fault Body child
// while collecting the children of all of them.
func (s *Scanned) strict(v Version) (*Message, error) {
	ns, other, label := NamespaceEnvelope, Version12, "1.1"
	if v == Version12 {
		ns, other, label = NamespaceEnvelope12, Version11, "1.2"
	}
	if dv := s.Detect(""); dv == other || dv == VersionHybrid {
		return nil, &DecodeError{
			Reason:  "envelope is not pure SOAP " + label + " (detected " + dv.String() + ")",
			Version: dv,
		}
	}
	if s.firstRoot < 0 {
		return nil, &DecodeError{Reason: "malformed envelope", Err: s.err}
	}
	root := s.nodes[s.firstRoot].name
	if root.Local != "Envelope" {
		return nil, &DecodeError{Reason: "malformed envelope",
			Err: xml.UnmarshalError("expected element type <Envelope> but have <" + root.Local + ">")}
	}
	if root.Space != ns {
		have := root.Space
		if have == "" {
			have = "no name space"
		}
		return nil, &DecodeError{Reason: "malformed envelope",
			Err: xml.UnmarshalError("expected element <Envelope> in name space " + ns + " but have " + have)}
	}
	if !s.firstRootClosed {
		return nil, &DecodeError{Reason: "malformed envelope", Err: s.err}
	}

	faultName := xml.Name{Space: ns, Local: "Fault"}
	var fault *Fault
	var payload xml.Name
	children := 0
	s.bodyKids(s.firstRoot, ns, func(k int32) {
		kn := &s.nodes[k]
		if kn.name == faultName {
			if fault == nil {
				fault = &Fault{}
			}
			if v == Version12 {
				s.fillFault12(k, fault)
			} else {
				s.fillFault11(k, fault)
			}
			return
		}
		payload = kn.name
		children += s.kidCount(k)
	})
	if fault != nil {
		return nil, fault
	}
	if payload.Local == "" {
		return nil, &DecodeError{Reason: "no payload", Err: ErrNoBody}
	}
	// Payload elements in either envelope namespace are envelope
	// machinery, never application data.
	if payload.Space == NamespaceEnvelope || payload.Space == NamespaceEnvelope12 {
		return nil, &DecodeError{
			Reason:  "payload element " + strconv.Quote(payload.Local) + " lives in a SOAP envelope namespace",
			Version: VersionHybrid,
		}
	}
	m := &Message{Namespace: payload.Space, Local: payload.Local, Fields: make(map[string]string, children)}
	var dup error
	s.bodyKids(s.firstRoot, ns, func(k int32) {
		if dup != nil || s.nodes[k].name == faultName {
			return
		}
		dup = s.addFields(m, k)
	})
	if dup != nil {
		return nil, dup
	}
	return m, nil
}

// bodyKids calls fn for every child of every Body in namespace ns
// under the root at index root, in document order.
func (s *Scanned) bodyKids(root int32, ns string, fn func(int32)) {
	for b := s.nodes[root].firstKid; b >= 0; b = s.nodes[b].nextSibl {
		if s.nodes[b].name != (xml.Name{Space: ns, Local: "Body"}) {
			continue
		}
		for k := s.nodes[b].firstKid; k >= 0; k = s.nodes[k].nextSibl {
			fn(k)
		}
	}
}

// fillFault11 copies a 1.1 Fault element's fields, matched by local
// name in any namespace; a repeated field keeps its last value.
func (s *Scanned) fillFault11(i int32, f *Fault) {
	for k := s.nodes[i].firstKid; k >= 0; k = s.nodes[k].nextSibl {
		kn := &s.nodes[k]
		switch kn.name.Local {
		case "faultcode":
			f.Code = kn.text
		case "faultstring":
			f.String = kn.text
		case "faultactor":
			f.Actor = kn.text
		case "detail":
			f.Detail = kn.text
		}
	}
}

// fillFault12 copies a 1.2 Fault element's Code/Value, Reason/Text,
// Node and Detail, each matched only in the 1.2 namespace; a repeated
// field keeps its last value.
func (s *Scanned) fillFault12(i int32, f *Fault) {
	for k := s.nodes[i].firstKid; k >= 0; k = s.nodes[k].nextSibl {
		kn := &s.nodes[k]
		if kn.name.Space != NamespaceEnvelope12 {
			continue
		}
		switch kn.name.Local {
		case "Code":
			s.lastText(k, "Value", &f.Code)
		case "Reason":
			s.lastText(k, "Text", &f.String)
		case "Node":
			f.Actor = kn.text
		case "Detail":
			f.Detail = kn.text
		}
	}
}

// lastText stores the text of i's last 1.2-namespace child named
// local, leaving dst alone when there is none.
func (s *Scanned) lastText(i int32, local string, dst *string) {
	for k := s.nodes[i].firstKid; k >= 0; k = s.nodes[k].nextSibl {
		if s.nodes[k].name == (xml.Name{Space: NamespaceEnvelope12, Local: local}) {
			*dst = s.nodes[k].text
		}
	}
}

// addFields adds the children of payload element i to m, rejecting a
// duplicate child: Message carries one value per field name, and
// silently keeping the last occurrence would let a corrupted (or
// attacker-duplicated) envelope masquerade as a clean one.
func (s *Scanned) addFields(m *Message, i int32) error {
	for k := s.nodes[i].firstKid; k >= 0; k = s.nodes[k].nextSibl {
		kn := &s.nodes[k]
		if _, dup := m.Fields[kn.name.Local]; dup {
			return &DecodeError{Reason: "duplicate payload element " + strconv.Quote(kn.name.Local)}
		}
		m.Fields[kn.name.Local] = kn.text
	}
	return nil
}

// bodyFirst is the lenient parsers' envelope reading: the whole
// document must tokenize within maxNesting, its last root must be
// named Envelope and its first child named Body must have an element
// child, which it returns. Only local names count, so any namespace
// mix passes.
func (s *Scanned) bodyFirst() (int32, error) {
	switch {
	case s.tooDeep:
		return -1, &DecodeError{Reason: "malformed envelope", Err: errTooDeep}
	case s.err != io.EOF:
		return -1, &DecodeError{Reason: "malformed envelope", Err: s.err}
	case s.lastRoot < 0:
		return -1, &DecodeError{Reason: "malformed envelope", Err: errNoRoot}
	}
	if local := s.nodes[s.lastRoot].name.Local; local != "Envelope" {
		return -1, &DecodeError{Reason: "document element " + strconv.Quote(local) + " is not an Envelope"}
	}
	body := s.kid(s.lastRoot, "Body")
	if body < 0 || s.nodes[body].firstKid < 0 {
		return -1, &DecodeError{Reason: "no payload", Err: ErrNoBody}
	}
	return s.nodes[body].firstKid, nil
}

// messageFromNode converts a payload element into a Message, keeping
// the duplicate-child rejection rule of the strict parsers.
func (s *Scanned) messageFromNode(i int32) (*Message, error) {
	n := &s.nodes[i]
	m := &Message{Namespace: n.name.Space, Local: n.name.Local, Fields: make(map[string]string, s.kidCount(i))}
	if err := s.addFields(m, i); err != nil {
		return nil, err
	}
	return m, nil
}

// Flexible parses the scanned envelope in either version, including
// hybrids, recognizing fault markup in both shapes. This models the
// lenient-accept frameworks (Axis, PHP): they never mistake a fault
// for data, but they also never refuse a version mix.
func (s *Scanned) Flexible() (*Message, error) {
	switch s.Detect("") {
	case Version11, VersionUnknown:
		// An unknown message is not an envelope in either namespace;
		// the 1.1 parser supplies the diagnostics.
		return s.strict(Version11)
	case Version12:
		return s.strict(Version12)
	}
	// Hybrid: neither strict parser will touch it, so read the tree
	// by local name, honoring envelope machinery from both versions.
	first, err := s.bodyFirst()
	if err != nil {
		return nil, err
	}
	fn := s.nodes[first].name
	if fn.Local != "Fault" || (fn.Space != NamespaceEnvelope && fn.Space != NamespaceEnvelope12) {
		return s.messageFromNode(first)
	}
	f := &Fault{}
	for k := s.nodes[first].firstKid; k >= 0; k = s.nodes[k].nextSibl {
		kn := &s.nodes[k]
		switch kn.name.Local {
		case "faultcode":
			f.Code = kn.text
		case "faultstring":
			f.String = kn.text
		case "faultactor", "Node":
			f.Actor = kn.text
		case "detail", "Detail":
			f.Detail = kn.text
		case "Code":
			if v := s.kid(k, "Value"); v >= 0 {
				f.Code = s.nodes[v].text
			}
		case "Reason":
			if v := s.kid(k, "Text"); v >= 0 {
				f.String = s.nodes[v].text
			}
		}
	}
	return nil, f
}

// Coerce parses the scanned envelope namespace-blind: any root named
// Envelope is accepted and only the native 1.1 faultcode shape is
// recognized as a fault. This models the silent-coerce frameworks
// (ASMX-era .NET, suds): a 1.2-shaped fault parses as a *successful*
// message with Local="Fault" — the silent mishandling the version
// matrix exists to expose.
func (s *Scanned) Coerce() (*Message, error) {
	first, err := s.bodyFirst()
	if err != nil {
		return nil, err
	}
	code := s.kid(first, "faultcode")
	if s.nodes[first].name.Local != "Fault" || code < 0 {
		return s.messageFromNode(first)
	}
	f := &Fault{Code: s.nodes[code].text}
	if k := s.kid(first, "faultstring"); k >= 0 {
		f.String = s.nodes[k].text
	}
	if k := s.kid(first, "faultactor"); k >= 0 {
		f.Actor = s.nodes[k].text
	}
	if k := s.kid(first, "detail"); k >= 0 {
		f.Detail = s.nodes[k].text
	}
	return nil, f
}
