package framework

import (
	"math/rand"
	"testing"

	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
)

// mutate corrupts a document deterministically: byte flips, deletions,
// truncations and tag splices, seeded per iteration.
func mutate(r *rand.Rand, doc []byte) []byte {
	out := append([]byte(nil), doc...)
	switch r.Intn(4) {
	case 0: // flip random bytes
		for i := 0; i < 1+r.Intn(8); i++ {
			out[r.Intn(len(out))] = byte(r.Intn(256))
		}
	case 1: // delete a span
		start := r.Intn(len(out))
		end := start + r.Intn(len(out)-start)
		out = append(out[:start], out[end:]...)
	case 2: // truncate
		out = out[:r.Intn(len(out))]
	case 3: // splice a rogue tag
		pos := r.Intn(len(out))
		rogue := []byte("<rogue:tag attr='")
		out = append(out[:pos:pos], append(rogue, out[pos:]...)...)
	}
	return out
}

// TestClientsSurviveCorruptedDocuments feeds every client hundreds of
// corrupted WSDLs. Clients must neither panic nor produce artifacts
// with nil classes from garbage; a parse failure issue is the correct
// outcome for undecodable input.
func TestClientsSurviveCorruptedDocuments(t *testing.T) {
	base := publishRaw(t, NewWCFServer(), typesys.CSharpDataTable)
	clients := Clients()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		doc := mutate(r, base)
		for _, c := range clients {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("iteration %d: %s panicked: %v\ndocument:\n%s", i, c.Name(), p, doc)
					}
				}()
				res := Generate(c, doc)
				if res.Unit != nil {
					// Whatever was generated must be safe to verify.
					c.Verify(res.Unit)
				}
			}()
		}
	}
}

// TestServersSurviveEveryCatalogClass ensures Publish never panics
// for any class, including the unbindable kinds.
func TestServersSurviveEveryCatalogClass(t *testing.T) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("publish panicked: %v", p)
		}
	}()
	for _, s := range Servers() {
		cat := typesys.JavaCatalog()
		if s.Language() == typesys.CSharp {
			cat = typesys.CSharpCatalog()
		}
		for i := range cat.Classes {
			def := services.ForClass(&cat.Classes[i])
			_, _ = s.Publish(def)
		}
	}
}
