// Package shape computes deterministic structural fingerprints for
// generated test services.
//
// The frameworks of the study map a class to a service description by
// its *structural traits* — binding kind, schema-mapping hints, bean
// field list, interface variant — never by its name. Most of the
// 22 024-class corpus therefore collapses into a small set of
// structural shapes: two classes with the same traits yield WSDL
// documents (and downstream client-test outcomes) that are identical
// up to the handful of name-derived strings. This package defines that
// equivalence precisely:
//
//   - Fingerprint is a content address over exactly the trait inputs
//     of server emission (everything framework.ServerFramework.Publish
//     reads except the name-derived strings).
//   - Vars lists the name-derived strings of a definition in a fixed
//     slot order, so a marshaled document can be split into a reusable
//     template (wsdl.Template) and re-rendered for a same-shape class.
//   - Sentinel builds a same-shape definition whose name-derived
//     strings are unique sentinel tokens, giving the campaign a clean
//     document to split templates from.
//
// The campaign runner uses these pieces to memoize the publish, WS-I
// checking, and client-testing work per (server, fingerprint) instead
// of per class (DESIGN.md §6.6).
package shape

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/xsd"
)

// Fingerprint is the content address of a definition's structural
// shape. Equal fingerprints mean the servers' emitted documents are
// identical after name substitution (a property the campaign verifies
// per shape rather than assuming — see DESIGN.md §6.6).
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex for reports and debugging.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// Of computes the structural fingerprint of a definition.
func Of(def services.Definition) Fingerprint {
	return sha256.Sum256(Canonical(def, nil))
}

// Canonical appends the canonical trait serialization of the
// definition to buf and returns the result. The encoding is
// length-prefixed so distinct trait lists cannot collide by
// concatenation, and it covers exactly the inputs server emission
// depends on beyond the name-derived strings: interface variant,
// implementation language, binding kind, structural hints, and the
// ordered bean field list (field order is part of the emitted
// sequence, so it is part of the shape).
func Canonical(def services.Definition, buf []byte) []byte {
	cls := def.Parameter
	buf = append(buf, "shape\x00v1\x00"...)
	buf = appendUint(buf, uint64(def.Variant))
	buf = appendUint(buf, uint64(cls.Language))
	buf = appendUint(buf, uint64(cls.Kind))
	buf = appendUint(buf, uint64(cls.Hints))
	buf = appendUint(buf, uint64(len(cls.Fields)))
	for _, f := range cls.Fields {
		buf = appendString(buf, f.Name)
		buf = appendUint(buf, uint64(f.Kind))
		// Ref names another schema type; the referenced type is emitted
		// with that exact name, so Ref is structural, not substitutable.
		buf = appendString(buf, f.Ref)
	}
	return buf
}

func appendUint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Template variable slots, in the order Vars returns them. A split
// template carries one slot index per occurrence, so rendering for a
// different class substitutes each name-derived string independently.
const (
	// SlotService is the service name (services.Definition.Name); it
	// also names the port type, binding, service, port, and endpoint
	// path derived from it.
	SlotService = iota
	// SlotNamespace is the target namespace derived from the parameter
	// class's package.
	SlotNamespace
	// SlotSimple is the parameter class's local name; it names the
	// parameter complex type and its derived companion types.
	SlotSimple
	numSlots
)

// Vars returns the definition's name-derived strings in slot order.
func Vars(def services.Definition) []string {
	v := VarsArray(def)
	return v[:]
}

// VarsArray is the allocation-free form of Vars: the fixed-arity
// value array returned by value, so a caller that only needs the
// values for a Render call keeps them on its stack.
func VarsArray(def services.Definition) [3]string {
	cls := def.Parameter
	var v [3]string
	v[SlotService] = def.Name
	v[SlotNamespace] = typesys.NamespaceFor(cls.Language, cls.Package)
	v[SlotSimple] = cls.Simple
	return v
}

// Sentinel tokens. They are valid NCNames, survive SanitizeNCName
// unchanged, and are improbable enough that they cannot collide with
// structural text in an emitted document; the campaign still verifies
// each split template byte-for-byte before trusting it.
const (
	sentinelService = "Zz9ShapeSvcQx"
	sentinelPackage = "zz9shapepkgqx"
	sentinelSimple  = "Zz9ShapeTypeQx"
)

// Sentinel returns a definition with the same structural shape as def
// but with every name-derived string replaced by a sentinel token,
// together with the sentinel values of the template variable slots.
// Publishing the sentinel definition and splitting the marshaled bytes
// at the sentinel values yields the shape's document template.
func Sentinel(def services.Definition) (services.Definition, []string) {
	cls := *def.Parameter
	cls.Package = sentinelPackage
	cls.Simple = sentinelSimple
	cls.Name = sentinelPackage + "." + sentinelSimple
	sdef := services.Definition{
		Name:          sentinelService,
		OperationName: def.OperationName,
		Parameter:     &cls,
		Variant:       def.Variant,
	}
	return sdef, Vars(sdef)
}

// Memoizable reports whether the definition's name-derived strings
// render identically whether marshaled directly or spliced into a
// split template. Two properties are required of every variable
// value: it must pass through XML attribute serialization unescaped
// (plain printable ASCII without quoting hazards), and the service
// name must survive xsd.SanitizeNCName unchanged, because the
// endpoint path embeds the sanitized name in the same slot. Classes
// that fail the guard — hostile names — simply skip the memo layer
// and take the per-class path.
func Memoizable(def services.Definition) bool {
	for _, v := range Vars(def) {
		if !plain(v) {
			return false
		}
	}
	return xsd.SanitizeNCName(def.Name) == def.Name
}

// plain reports whether s is non-empty printable ASCII free of XML
// and Go-quoting escape triggers, so fmt %q and xml attribute
// escaping both emit it verbatim.
func plain(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
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
