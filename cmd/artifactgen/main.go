// Command artifactgen generates and prints the client artifacts one
// client framework produces for one service — the code the study's
// authors inspected when diagnosing interoperability failures.
//
// Usage:
//
//	artifactgen -server metro|jbossws|wcf -client NAME -class FQCN [-diags]
//
// Example (Axis2's duplicate-variable defect, visible in source):
//
//	artifactgen -server metro -client axis2 \
//	    -class javax.xml.datatype.XMLGregorianCalendar -diags
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wsinterop/internal/artifact"
	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "artifactgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("artifactgen", flag.ContinueOnError)
	serverName := fs.String("server", "metro", "server framework: metro, jbossws or wcf")
	clientName := fs.String("client", "metro", "client framework (substring match, e.g. axis2)")
	className := fs.String("class", "", "fully qualified class name")
	diags := fs.Bool("diags", false, "also print verification diagnostics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *className == "" {
		return fmt.Errorf("missing -class")
	}

	var server framework.ServerFramework
	for _, s := range framework.Servers() {
		if strings.Contains(strings.ToLower(s.Name()), strings.ToLower(*serverName)) {
			server = s
			break
		}
	}
	if server == nil {
		return fmt.Errorf("unknown server framework %q", *serverName)
	}
	var client framework.ClientFramework
	for _, c := range framework.Clients() {
		if strings.Contains(strings.ToLower(c.Name()), strings.ToLower(*clientName)) {
			client = c
			break
		}
	}
	if client == nil {
		return fmt.Errorf("unknown client framework %q", *clientName)
	}

	cat := typesys.JavaCatalog()
	if server.Language() == typesys.CSharp {
		cat = typesys.CSharpCatalog()
	}
	cls, ok := cat.Lookup(*className)
	if !ok {
		return fmt.Errorf("class %q is not in the %s catalog", *className, server.Language())
	}

	doc, err := server.Publish(services.ForClass(cls))
	if err != nil {
		return err
	}
	raw, err := wsdl.Marshal(doc)
	if err != nil {
		return err
	}
	gen := framework.Generate(client, raw)
	for _, issue := range gen.Issues {
		fmt.Fprintf(out, "// tool output: %s\n", issue)
	}
	if gen.Unit == nil {
		return fmt.Errorf("%s produced no artifacts for %s", client.Name(), cls.Name)
	}
	if _, err := io.WriteString(out, artifact.Render(gen.Unit)); err != nil {
		return err
	}
	if *diags {
		for _, d := range client.Verify(gen.Unit) {
			fmt.Fprintf(out, "// %s: %s\n", verifyStepName(client), d)
		}
	}
	return nil
}

func verifyStepName(c framework.ClientFramework) string {
	if c.ArtifactLanguage().Compiled() {
		return "compiler"
	}
	return "instantiation"
}
