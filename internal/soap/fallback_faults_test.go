package soap_test

import (
	"testing"

	"wsinterop/internal/soap"
	"wsinterop/internal/xmltok/xmltoktest"
)

// TestScanFallbackFaultBodies requires Scan to read every injected
// fault body and every codec output exactly as the encoding/xml walk
// does.
func TestScanFallbackFaultBodies(t *testing.T) {
	for _, set := range []map[string][]byte{xmltoktest.FaultBodies(t), xmltoktest.CodecOutputs(t)} {
		for name, data := range set {
			if diff := soap.ScanFallbackDiff(data); diff != "" {
				t.Errorf("%s: %s", name, diff)
			}
		}
	}
}
