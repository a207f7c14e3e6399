// Quickstart: the three tested inter-operation steps for a single
// service, end to end through the public pipeline:
//
//  1. a server framework publishes the WSDL for an echo service,
//  2. the WS-I checker audits it,
//  3. a client framework generates artifacts from the document,
//  4. the artifacts are compiled.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wsinterop/internal/artifact"
	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsdl"
	"wsinterop/internal/wsi"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Preparation Phase: pick a native class and create its echo
	// service (one operation, same input and output type).
	cat := typesys.JavaCatalog()
	cls, ok := cat.Lookup("java.text.SimpleDateFormat")
	if !ok {
		return fmt.Errorf("class not found in catalog")
	}
	def := services.ForClass(cls)
	fmt.Printf("service: %s (operation %q, parameter %s)\n\n", def.Name, def.OperationName, cls.Name)
	fmt.Println(services.SourceSkeleton(def))

	// Step 1: Service Description Generation on Metro / GlassFish.
	server := framework.NewMetroServer()
	doc, err := server.Publish(def)
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	raw, err := wsdl.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Printf("step 1: %s published a %d-byte WSDL\n", server.Name(), len(raw))

	// WS-I compliance check (the paper's description-step triage).
	rep := wsi.NewChecker().Check(doc)
	fmt.Printf("        WS-I compliant: %v (%d findings)\n", rep.Compliant(), len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("        - %s\n", v)
	}

	// Step 2: Client Artifact Generation with two different client
	// frameworks; SimpleDateFormat is one of the paper's §IV.B
	// narratives — Metro's own client consumes it, .NET's does not.
	for _, client := range []framework.ClientFramework{
		framework.NewMetroClient(),
		framework.NewDotNetClient(artifact.LangCSharp),
	} {
		gen := framework.Generate(client, raw)
		fmt.Printf("step 2: %s (%s): failed=%v, %d issue(s)\n",
			client.Name(), client.Tool(), gen.Failed(), len(gen.Issues))
		for _, issue := range gen.Issues {
			fmt.Printf("        - %s\n", issue)
		}
		if gen.Unit == nil {
			fmt.Println("        no artifacts; compilation skipped")
			continue
		}

		// Step 3: Client Artifact Compilation.
		diags := client.Verify(gen.Unit)
		fmt.Printf("step 3: compiled %d classes: %d error(s), %d warning(s)\n",
			len(gen.Unit.Classes), len(artifact.Errors(diags)), len(artifact.Warnings(diags)))
	}
	return nil
}
