package wsi

import (
	"fmt"
	"reflect"
	"testing"

	"wsinterop/internal/soap"
	"wsinterop/internal/xmltok"
)

// messageFallbackDiff reports how CheckMessage's reading of raw differs
// from the encoding/xml-only walk every declined message is rerun on,
// under both versions' rules with and without the hybrid guard; ""
// when every report agrees.
func messageFallbackDiff(raw []byte) string {
	c := NewChecker()
	meta := MessageMeta{ContentType: soap.ContentType, HTTPStatus: 500}
	for _, rules := range []msgRules{v11MsgRules, v12MsgRules} {
		for _, guard := range []bool{false, true} {
			rules.versionGuard = guard
			got, want := c.checkMessageRules(raw, meta, rules), c.checkTokens(xmltok.NewXMLStream(raw), raw, meta, rules)
			if !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("%s rules (guard %v): report %v, encoding/xml walk %v",
					rules.envNS, guard, got.Violations, want.Violations)
			}
		}
	}
	return ""
}

// MessageFallbackDiff exports messageFallbackDiff to the external test
// fed with the fault injector's bodies.
var MessageFallbackDiff = messageFallbackDiff

// TestMessageFallbackEquivalence requires the message check to report
// on the package's message fixtures, and on every prefix of canonical
// envelopes of both versions, exactly as the encoding/xml walk does,
// whichever token source served it.
func TestMessageFallbackEquivalence(t *testing.T) {
	inputs := [][]byte{
		[]byte(cleanEnvelope), []byte(cleanFault), []byte(cleanEnvelope12), []byte(cleanFault12),
		[]byte(`<Envelope xmlns="urn:wrong"><Body/></Envelope>`),
		[]byte(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><echo/><a:x xmlns:a="urn:a"/></soap:Body></soap:Envelope>`),
		[]byte(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><env:Fault xmlns:env="http://www.w3.org/2003/05/soap-envelope"><env:Code/><faultstring>x</faultstring></env:Fault></soap:Body></soap:Envelope>`),
	}
	for _, c := range []soap.Codec{soap.V11, soap.V12} {
		resp := echoEnvelope(t, c, "echoResponse")
		fault, err := c.MarshalFault(&soap.Fault{Code: c.FaultCode(soap.FaultClient), String: "x"})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, echoEnvelope(t, c, "echo"))
		for _, body := range [][]byte{resp, fault} {
			for i := 0; i <= len(body); i++ {
				inputs = append(inputs, body[:i])
			}
		}
	}
	for _, raw := range inputs {
		if diff := messageFallbackDiff(raw); diff != "" {
			t.Fatalf("%s\n%q", diff, raw)
		}
	}
}
