package transport

import (
	"context"
	"errors"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/services"
	"wsinterop/internal/soap"
	"wsinterop/internal/typesys"
)

// deployVariant deploys one service with the given interface variant
// and returns a local bridge plus the endpoint.
func deployVariant(t *testing.T, v services.Variant) (*Client, *Endpoint) {
	t.Helper()
	cls, ok := typesys.JavaCatalog().Lookup(typesys.JavaXMLGregorianCalendar)
	if !ok {
		t.Fatal("class missing")
	}
	doc, err := framework.NewMetroServer().Publish(services.ForClassVariant(cls, v))
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	host := NewHost()
	ep, err := host.DeployWSDL(doc)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return NewLocalBridge(host), ep
}

func TestPayloadValidationAccepts(t *testing.T) {
	bridge, ep := deployVariant(t, services.VariantMultiParam)
	specs := ep.Inputs["echo"]
	if len(specs) != 3 {
		t.Fatalf("specs = %+v, want 3 fields", specs)
	}
	fields := make(map[string]string, len(specs))
	for _, s := range specs {
		fields[s.Name] = SampleValue(s, "payload")
	}
	resp, err := bridge.Invoke(context.Background(), ep.Path, &soap.Message{
		Namespace: ep.Namespace, Local: "echo", Fields: fields,
	})
	if err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	if v, _ := resp.Field("count"); v != "42" {
		t.Errorf("count echoed as %q", v)
	}
}

func TestPayloadValidationRejects(t *testing.T) {
	bridge, ep := deployVariant(t, services.VariantMultiParam)
	cases := map[string]map[string]string{
		"missing required": {"options": "x"},
		"unknown element":  {"input": "x", "bogus": "y"},
		"bad int":          {"input": "x", "count": "not-a-number"},
	}
	for name, fields := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := bridge.Invoke(context.Background(), ep.Path, &soap.Message{
				Namespace: ep.Namespace, Local: "echo", Fields: fields,
			})
			var fault *soap.Fault
			if !errors.As(err, &fault) {
				t.Fatalf("expected a client fault, got %v", err)
			}
			if fault.Code != soap.FaultClient {
				t.Errorf("fault code = %q", fault.Code)
			}
		})
	}
}

func TestPayloadValidationNestedVariantFlattens(t *testing.T) {
	bridge, ep := deployVariant(t, services.VariantNested)
	specs := ep.Inputs["echo"]
	if len(specs) != 1 || specs[0].Name != "input" || !specs[0].Required {
		t.Fatalf("nested specs should flatten to the input leaf: %+v", specs)
	}
	if _, err := bridge.Invoke(context.Background(), ep.Path, &soap.Message{
		Namespace: ep.Namespace, Local: "echo",
		Fields: map[string]string{"input": "x"},
	}); err != nil {
		t.Fatalf("flattened payload rejected: %v", err)
	}
}

func TestSampleValueLexicallyValid(t *testing.T) {
	bridge, ep := deployVariant(t, services.VariantSimple)
	_ = bridge
	for _, specs := range ep.Inputs {
		for _, s := range specs {
			v := SampleValue(s, "payload")
			if v == "" && s.Type.Space != "" {
				t.Errorf("empty sample for %+v", s)
			}
		}
	}
}
