package soap

import (
	"fmt"
	"reflect"
	"testing"

	"wsinterop/internal/xmltok"
)

// scanFallbackDiff reports how Scan's reading of data differs from the
// encoding/xml-only walk every declined input is rerun on, with errors
// compared by text; "" when they agree.
func scanFallbackDiff(data []byte) string {
	got, want := Scan(data), scan(xmltok.NewXMLStream(data))
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Sprintf("error %v, encoding/xml walk %v", got.err, want.err)
	}
	g, w := *got, *want
	g.err, w.err = nil, nil
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("scan %+v, encoding/xml walk %+v", g, w)
	}
	return ""
}

// ScanFallbackDiff exports scanFallbackDiff to the external test fed
// with the fault injector's bodies.
var ScanFallbackDiff = scanFallbackDiff

// TestScanFallbackEquivalence requires Scan to read every
// FuzzScanMatchesOracle seed, and every prefix of a canonical echo
// response, exactly as the encoding/xml walk does, whichever token
// source served it.
func TestScanFallbackEquivalence(t *testing.T) {
	inputs := scanSeedInputs(t)
	body := echoResponse(t)
	for i := 0; i <= len(body); i++ {
		inputs = append(inputs, body[:i])
	}
	for _, data := range inputs {
		if diff := scanFallbackDiff(data); diff != "" {
			t.Fatalf("%s\n%q", diff, data)
		}
	}
}
