// Communication: the paper's announced future work — steps 4 and 5
// (Communication and Execution) — implemented and demonstrated. A
// clean service is published, deployed on a live loopback SOAP host,
// and invoked through a real HTTP round trip; a second invocation
// shows fault handling for an unknown operation.
//
// Run with:
//
//	go run ./examples/communication
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
	"wsinterop/internal/typesys"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Steps 1–3 happen statically (see quickstart); here we pick a
	// clean class, publish it and go live.
	cat := typesys.JavaCatalog()
	var cls *typesys.Class
	for i := range cat.Classes {
		if cat.Classes[i].Kind == typesys.KindBean && cat.Classes[i].Hints == 0 {
			cls = &cat.Classes[i]
			break
		}
	}
	if cls == nil {
		return errors.New("no clean bean class in catalog")
	}
	def := services.ForClass(cls)

	server := framework.NewMetroServer()
	doc, err := server.Publish(def)
	if err != nil {
		return err
	}

	host := transport.NewHost()
	ep, err := host.DeployWSDL(doc)
	if err != nil {
		return err
	}
	base, err := host.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := host.Shutdown(context.Background()); err != nil {
			log.Printf("host shutdown: %v", err)
		}
	}()
	fmt.Printf("deployed %s at %s%s\n", def.Name, base, ep.Path)

	// Step 4 (Communication) + step 5 (Execution): live SOAP echo.
	client := transport.NewClient(nil)
	req := &soap.Message{
		Namespace: ep.Namespace,
		Local:     def.OperationName,
		Fields:    map[string]string{"input": "interoperability achieved"},
	}
	resp, err := client.Invoke(ctx, base+ep.Path, req)
	if err != nil {
		return fmt.Errorf("invoke: %w", err)
	}
	echoed, _ := resp.Field("input")
	fmt.Printf("invoked %s → %s, echoed %q\n", def.OperationName, resp.Local, echoed)

	// Fault path: unknown operation.
	bad := &soap.Message{Namespace: ep.Namespace, Local: "noSuchOperation"}
	if _, err := client.Invoke(ctx, base+ep.Path, bad); err != nil {
		var fault *soap.Fault
		if errors.As(err, &fault) {
			fmt.Printf("fault handling works: %s\n", fault)
			return nil
		}
		return err
	}
	return errors.New("expected a SOAP fault for an unknown operation")
}
