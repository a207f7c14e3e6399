package wsi

// Shape-level checking (DESIGN.md §10). The campaign's structural
// shape memo (internal/shape, internal/campaign/dedup.go) proves that
// two same-shape classes publish documents identical up to a fixed
// set of name-derived strings — the wsdl.Template variable chunks.
// This file classifies every assertion by how its verdict behaves
// under that substitution, so a per-shape verdict can stand in for
// the per-class check:
//
//   - A *name-invariant* assertion inspects only structure the
//     substitution never touches (binding transports, body use,
//     facet vocabularies, part reference kinds, operation counts,
//     ...). Its verdict is memoized once per shape fingerprint and
//     reused verbatim for every same-shape class.
//
//   - A *name-sensitive* assertion could in principle flip if a
//     substituted string were degenerate: an empty targetNamespace
//     flips R2105, and a namespace colliding with a specification
//     namespace could change what R2001/R2101 resolution sees. For
//     these the campaign runs SubstitutionSafe — cheap predicates
//     over the template's variable chunks, no XML in sight. When the
//     predicates hold, a consistent renaming is verdict-preserving
//     for the name-sensitive assertions too, and the memoized report
//     applies; when they fail, the class takes the full per-class
//     check (exactly like the shape memo's own Memoizable guard).
//
// The soundness argument is not assumed: TestWSIShapeEquivalenceFull
// replays the full 22 024-class corpus through both paths and
// requires identical violated-assertion multisets per class, and the
// chunk predicates are fuzzed against hostile NCNames in
// FuzzWSISubstitutionSafe.

import (
	"encoding/xml"
	"strings"
	"unicode/utf8"

	"wsinterop/internal/wsdl"
	"wsinterop/internal/xsd"
)

// nameSensitive holds the assertions whose verdicts depend on the
// name-derived strings of a published document. Everything else the
// checker implements — document and message assertions alike — is
// invariant under consistent name substitution.
var nameSensitive = map[string]bool{
	// R2105: a substituted empty namespace removes the schema's
	// targetNamespace attribute.
	AssertionTargetNamespace.ID: true,
	// R2001: QName resolution can change if the substituted namespace
	// collides with (or departs from) a specification namespace the
	// resolver treats specially.
	AssertionResolvableRefs.ID: true,
	// R2101: structural reference resolution names bindings, port
	// types, messages and services after the service name.
	AssertionBindingResolves.ID: true,
}

// NameInvariant reports whether the assertion's verdict is invariant
// under a consistent substitution of a document's name-derived
// strings (service name, target namespace, parameter type name).
// Holds for both document (Rxxxx/EXTxxxx) and message (RMxxxx)
// assertions.
func NameInvariant(a Assertion) bool {
	return !nameSensitive[a.ID]
}

// reservedNamespaces are namespaces with fixed meaning to WSDL/XSD
// tooling. A class namespace colliding with one of these could alter
// what reference resolution (R2001/R2101) accepts relative to the
// shape's representative, so SubstitutionSafe rejects them.
var reservedNamespaces = map[string]bool{
	xsd.NamespaceXSD:       true,
	xsd.NamespaceXML:       true,
	wsdl.NamespaceWSDL:     true,
	wsdl.NamespaceSOAP:     true,
	wsdl.NamespaceSOAPHTTP: true,
}

// SubstitutionSafe reports whether substituting the given name-derived
// strings into a shape template preserves the name-sensitive assertion
// verdicts of the shape's representative. service and simple must be
// valid NCNames; namespace must be a non-empty, XML-attribute-safe
// plain-ASCII URI that is not a reserved specification namespace.
// These are the chunk predicates of the shape-level WS-I path: they
// run over raw template variables, never over rendered XML.
func SubstitutionSafe(service, namespace, simple string) bool {
	if !IsNCName(service) || !IsNCName(simple) {
		return false
	}
	if namespace == "" || reservedNamespaces[namespace] {
		return false
	}
	for i := 0; i < len(namespace); i++ {
		c := namespace[i]
		if c < 0x20 || c > 0x7e {
			return false
		}
		switch c {
		case '"', '\\', '&', '<', '>', '\'':
			return false
		}
	}
	return true
}

// IsNCName reports whether s is a valid XML NCName (a Name with no
// colon) — the production service and type names must satisfy for a
// substitution to leave reference resolution untouched. Plain ASCII
// names, every name of the stock corpus, are decided byte by byte; a
// name with any non-ASCII byte takes the rune tables (isNCNameRunes).
func IsNCName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return isNCNameRunes(s)
		}
		if ncNameASCII[c] == 0 || i == 0 && ncNameASCII[c] != ncStart {
			return false
		}
	}
	return true
}

// ncNameASCII classifies the ASCII bytes of the NCName production:
// ncStart may open a name, ncChar only continue one, 0 neither.
var ncNameASCII = func() (t [utf8.RuneSelf]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		switch {
		case isNCNameStart(rune(c)):
			t[c] = ncStart
		case isNCNameChar(rune(c)):
			t[c] = ncChar
		}
	}
	return t
}()

const (
	ncStart = 1 + iota
	ncChar
)

// isNCNameRunes is IsNCName over the rune tables, for a non-empty name
// with at least one non-ASCII byte.
func isNCNameRunes(s string) bool {
	if !utf8.ValidString(s) {
		// Invalid UTF-8 decodes as U+FFFD — a legal NCName rune — so
		// a byte-wise hostile name would pass the rune checks below
		// while the raw bytes corrupt the rendered document.
		return false
	}
	for i, r := range s {
		if i == 0 {
			if !isNCNameStart(r) {
				return false
			}
			continue
		}
		if !isNCNameChar(r) {
			return false
		}
	}
	return parserAcceptsName(s)
}

// parserAcceptsName probes encoding/xml with the candidate name. The
// rune tables above implement the XML 1.0 fifth-edition NCName
// production, but the parser on the consuming side of a round trip
// uses the stricter fourth-edition Letter tables (e.g. it rejects
// U+0379, which the fifth edition allows); a non-ASCII name only
// memoizes safely if that parser reads it back intact.
func parserAcceptsName(s string) bool {
	dec := xml.NewDecoder(strings.NewReader("<" + s + "/>"))
	tok, err := dec.Token()
	if err != nil {
		return false
	}
	se, ok := tok.(xml.StartElement)
	return ok && se.Name.Local == s
}

func isNCNameStart(r rune) bool {
	return r == '_' ||
		r >= 'A' && r <= 'Z' || r >= 'a' && r <= 'z' ||
		r >= 0xC0 && r <= 0xD6 || r >= 0xD8 && r <= 0xF6 ||
		r >= 0xF8 && r <= 0x2FF || r >= 0x370 && r <= 0x37D ||
		r >= 0x37F && r <= 0x1FFF || r >= 0x200C && r <= 0x200D ||
		r >= 0x2070 && r <= 0x218F || r >= 0x2C00 && r <= 0x2FEF ||
		r >= 0x3001 && r <= 0xD7FF || r >= 0xF900 && r <= 0xFDCF ||
		r >= 0xFDF0 && r <= 0xFFFD || r >= 0x10000 && r <= 0xEFFFF
}

func isNCNameChar(r rune) bool {
	return isNCNameStart(r) || r == '-' || r == '.' ||
		r >= '0' && r <= '9' || r == 0xB7 ||
		r >= 0x300 && r <= 0x36F || r >= 0x203F && r <= 0x2040
}
