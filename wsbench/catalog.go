package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"wsinterop/internal/typesys"
)

// scalarKinds are the field kinds the seed-derived field draws from:
// every XSD built-in the type system maps, never a reference (a Ref
// names another schema type and would make the field structural in a
// second way).
var scalarKinds = []typesys.FieldKind{
	typesys.FieldString, typesys.FieldInt, typesys.FieldLong, typesys.FieldBool,
	typesys.FieldDouble, typesys.FieldDateTime, typesys.FieldBytes,
}

// distinctCatalogJSON synthesizes one language's catalog for the
// study_distinct_journal workload and returns its typesys.ExportJSON
// form. The catalog has as many classes as the stock catalog of that
// language. Each class copies the kind, hints and field list of a
// stock class drawn at random, so the synthetic corpus follows the
// stock distribution jointly (a throwable keeps its throwable fields),
// and then gains one field whose name embeds its index and a
// seed-derived token. No two classes therefore share a structural
// shape, and the shape memo can serve nothing. The same seed always
// yields byte-identical output.
func distinctCatalogJSON(lang typesys.Language, seed int64) ([]byte, error) {
	stock := stockCatalog(lang)
	if stock == nil {
		return nil, fmt.Errorf("no stock catalog for %s", lang)
	}
	// Each language draws from its own stream, so the Java catalog does
	// not depend on how many draws the C# one makes.
	rng := rand.New(rand.NewSource(seed*2 + int64(lang)))
	classes := make([]typesys.Class, len(stock.Classes))
	for i := range classes {
		tmpl := &stock.Classes[rng.Intn(len(stock.Classes))]
		simple := tmpl.Simple + "G" + strconv.Itoa(i)
		fields := make([]typesys.Field, len(tmpl.Fields), len(tmpl.Fields)+1)
		copy(fields, tmpl.Fields)
		fields = append(fields, typesys.Field{
			Name: "u" + strconv.Itoa(i) + "v" + strconv.FormatUint(uint64(rng.Uint32()), 16),
			Kind: scalarKinds[rng.Intn(len(scalarKinds))],
		})
		classes[i] = typesys.Class{
			Name:     tmpl.Package + "." + simple,
			Package:  tmpl.Package,
			Simple:   simple,
			Language: lang,
			Kind:     tmpl.Kind,
			Hints:    tmpl.Hints,
			Fields:   fields,
		}
	}
	return typesys.ExportJSON(&typesys.Catalog{Language: lang, Classes: classes})
}

// stockCatalog returns the study's catalog for a language.
func stockCatalog(lang typesys.Language) *typesys.Catalog {
	switch lang {
	case typesys.Java:
		return typesys.JavaCatalog()
	case typesys.CSharp:
		return typesys.CSharpCatalog()
	}
	return nil
}

// distinctCatalogs builds and imports both synthetic catalogs, the way
// a user runs the campaign over their own class lists: through the
// JSON form and typesys.ImportJSON.
func distinctCatalogs(seed int64) (map[typesys.Language]*typesys.Catalog, error) {
	cats := make(map[typesys.Language]*typesys.Catalog, 2)
	for _, lang := range []typesys.Language{typesys.Java, typesys.CSharp} {
		data, err := distinctCatalogJSON(lang, seed)
		if err != nil {
			return nil, err
		}
		cat, err := typesys.ImportJSON(data)
		if err != nil {
			return nil, fmt.Errorf("import synthetic %s catalog: %w", lang, err)
		}
		cats[lang] = cat
	}
	return cats, nil
}
