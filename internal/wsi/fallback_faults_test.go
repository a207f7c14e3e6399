package wsi_test

import (
	"testing"

	"wsinterop/internal/wsi"
	"wsinterop/internal/xmltok/xmltoktest"
)

// TestMessageFallbackFaultBodies requires the message check to report
// on every injected fault body and every codec output exactly as the
// encoding/xml walk does.
func TestMessageFallbackFaultBodies(t *testing.T) {
	for _, set := range []map[string][]byte{xmltoktest.FaultBodies(t), xmltoktest.CodecOutputs(t)} {
		for name, data := range set {
			if diff := wsi.MessageFallbackDiff(data); diff != "" {
				t.Errorf("%s: %s", name, diff)
			}
		}
	}
}
