// Command catalogdump exports a platform class catalog as JSON — the
// reproduction's equivalent of the study's published class lists —
// and verifies re-importability. Custom catalogs in the same format
// can be fed back into the campaign via campaign.WithCatalog.
//
// Usage:
//
//	catalogdump [-lang java|csharp] [-stats]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wsinterop/internal/typesys"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "catalogdump:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("catalogdump", flag.ContinueOnError)
	lang := fs.String("lang", "java", "catalog to export: java or csharp")
	stats := fs.Bool("stats", false, "print catalog statistics instead of JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cat *typesys.Catalog
	switch *lang {
	case "java":
		cat = typesys.JavaCatalog()
	case "csharp":
		cat = typesys.CSharpCatalog()
	default:
		return fmt.Errorf("unknown language %q (java, csharp)", *lang)
	}

	if *stats {
		s := cat.Stats()
		fmt.Fprintf(out, "language: %s\nclasses:  %d\nbindable: %d\n", cat.Language, s.Total, s.Bindable)
		for _, k := range []typesys.Kind{
			typesys.KindBean, typesys.KindBeanVendor, typesys.KindAsyncHandle,
			typesys.KindInterface, typesys.KindAbstract, typesys.KindGeneric,
			typesys.KindNoCtor, typesys.KindStatic, typesys.KindDelegate,
		} {
			if n := s.ByKind[k]; n > 0 {
				fmt.Fprintf(out, "  %-12s %d\n", k, n)
			}
		}
		return nil
	}

	data, err := typesys.ExportJSON(cat)
	if err != nil {
		return err
	}
	_, err = out.Write(data)
	return err
}
