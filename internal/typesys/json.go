package typesys

import (
	"encoding/json"
	"fmt"
	"sort"
)

// JSON export/import for catalogs. The study's original artifact
// published its crawled class lists; this is the equivalent facility —
// and the inverse direction lets users run the campaign over their own
// class catalogs (campaign.WithCatalog).

// hintNames maps each hint bit to its stable wire name.
var hintNames = map[Hint]string{
	HintUnresolvedAddressingRef: "unresolved-addressing-ref",
	HintVendorFacet:             "vendor-facet",
	HintZeroOperations:          "zero-operations",
	HintEmptyTypes:              "empty-types",
	HintLangAttr:                "lang-attr",
	HintSchemaRefHard:           "schema-ref-hard",
	HintSchemaRefNested:         "schema-ref-nested",
	HintSchemaRefWithAny:        "schema-ref-with-any",
	HintSchemaRefUnbounded:      "schema-ref-unbounded",
	HintDoubleLang:              "double-lang",
	HintNillableRef:             "nillable-ref",
	HintOptionalRef:             "optional-ref",
	HintWildcard:                "wildcard",
	HintCaseCollidingFields:     "case-colliding-fields",
	HintThrowable:               "throwable",
	HintReservedWordField:       "reserved-word-field",
	HintDeepNesting:             "deep-nesting",
	HintEchoField:               "echo-field",
}

// namesToHints is the inverse of hintNames, built once.
var namesToHints = func() map[string]Hint {
	m := make(map[string]Hint, len(hintNames))
	for h, n := range hintNames {
		m[n] = h
	}
	return m
}()

// HintNames renders a hint mask as sorted wire names.
func HintNames(h Hint) []string {
	var out []string
	for bit, name := range hintNames {
		if h.Has(bit) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ParseHints converts wire names back to a hint mask.
func ParseHints(names []string) (Hint, error) {
	var h Hint
	for _, n := range names {
		bit, ok := namesToHints[n]
		if !ok {
			return 0, fmt.Errorf("typesys: unknown hint %q", n)
		}
		h |= bit
	}
	return h, nil
}

// kindNames maps kinds to stable wire names.
var kindNames = map[Kind]string{
	KindBean: "bean", KindBeanVendor: "bean-vendor",
	KindAsyncHandle: "async-handle", KindInterface: "interface",
	KindAbstract: "abstract", KindGeneric: "generic",
	KindNoCtor: "no-ctor", KindStatic: "static", KindDelegate: "delegate",
}

var namesToKinds = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

var fieldKindNames = map[FieldKind]string{
	FieldString: "string", FieldInt: "int", FieldLong: "long",
	FieldBool: "bool", FieldDouble: "double", FieldDateTime: "dateTime",
	FieldBytes: "bytes", FieldRef: "ref",
}

var namesToFieldKinds = func() map[string]FieldKind {
	m := make(map[string]FieldKind, len(fieldKindNames))
	for k, n := range fieldKindNames {
		m[n] = k
	}
	return m
}()

type jsonCatalog struct {
	Language string      `json:"language"`
	Classes  []jsonClass `json:"classes"`
}

type jsonClass struct {
	Name   string      `json:"name"`
	Kind   string      `json:"kind"`
	Hints  []string    `json:"hints,omitempty"`
	Fields []jsonField `json:"fields,omitempty"`
}

type jsonField struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Ref  string `json:"ref,omitempty"`
}

// ExportJSON serializes the catalog.
func ExportJSON(cat *Catalog) ([]byte, error) {
	out := jsonCatalog{Language: cat.Language.String()}
	out.Classes = make([]jsonClass, 0, cat.Len())
	for i := range cat.Classes {
		c := &cat.Classes[i]
		jc := jsonClass{Name: c.Name, Kind: kindNames[c.Kind], Hints: HintNames(c.Hints)}
		for _, f := range c.Fields {
			jc.Fields = append(jc.Fields, jsonField{Name: f.Name, Kind: fieldKindNames[f.Kind], Ref: f.Ref})
		}
		out.Classes = append(out.Classes, jc)
	}
	return json.MarshalIndent(out, "", "  ")
}

// ImportJSON rebuilds a catalog from its JSON export. The language
// string selects name-splitting and namespace conventions.
func ImportJSON(data []byte) (*Catalog, error) {
	var in jsonCatalog
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("typesys: parse catalog: %w", err)
	}
	var lang Language
	switch in.Language {
	case Java.String():
		lang = Java
	case CSharp.String():
		lang = CSharp
	default:
		return nil, fmt.Errorf("typesys: unknown language %q", in.Language)
	}
	cat := &Catalog{Language: lang, Classes: make([]Class, 0, len(in.Classes))}
	for _, jc := range in.Classes {
		kind, ok := namesToKinds[jc.Kind]
		if !ok {
			return nil, fmt.Errorf("typesys: class %q has unknown kind %q", jc.Name, jc.Kind)
		}
		hints, err := ParseHints(jc.Hints)
		if err != nil {
			return nil, fmt.Errorf("typesys: class %q: %w", jc.Name, err)
		}
		pkg, simple := splitName(jc.Name)
		if pkg == "" || simple == "" {
			return nil, fmt.Errorf("typesys: class name %q is not fully qualified", jc.Name)
		}
		cls := Class{
			Name: jc.Name, Package: pkg, Simple: simple,
			Language: lang, Kind: kind, Hints: hints,
		}
		for _, jf := range jc.Fields {
			fk, ok := namesToFieldKinds[jf.Kind]
			if !ok {
				return nil, fmt.Errorf("typesys: field %s.%s has unknown kind %q", jc.Name, jf.Name, jf.Kind)
			}
			cls.Fields = append(cls.Fields, Field{Name: jf.Name, Kind: fk, Ref: jf.Ref})
		}
		cat.Classes = append(cat.Classes, cls)
	}
	return cat.finishChecked()
}

// splitName separates a fully qualified class name into package and
// simple name at the last dot.
func splitName(fq string) (pkg, simple string) {
	for i := len(fq) - 1; i >= 0; i-- {
		if fq[i] == '.' {
			return fq[:i], fq[i+1:]
		}
	}
	return "", fq
}

// finishChecked indexes the catalog, returning an error (rather than
// panicking) for user-supplied data.
func (c *Catalog) finishChecked() (*Catalog, error) {
	c.byName = make(map[string]int, len(c.Classes))
	for i := range c.Classes {
		name := c.Classes[i].Name
		if _, dup := c.byName[name]; dup {
			return nil, fmt.Errorf("typesys: duplicate class name %q", name)
		}
		c.byName[name] = i
	}
	return c, nil
}
