package soap

import "testing"

// fuzzSeedInputs collects the corpus shared by the codec fuzzers: canonical
// envelopes of both versions, faults of both shapes, and the hybrid
// variants the version matrix measures (a 1.1 envelope carrying a
// 1.2-shaped fault; a 1.2 envelope framed with 1.1-era headers is a
// transport-level hybrid, so its bytes are a pure 1.2 seed here).
func fuzzSeedInputs(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	seed, err := V11.Marshal(testMessage())
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, seed)
	fault, err := V11.MarshalFault(&Fault{Code: FaultClient, String: "x"})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, fault)
	seed12, err := V12.Marshal(testMessage())
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, seed12)
	fault12, err := V12.MarshalFault(&Fault{Code: Fault12Sender, String: "x"})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, fault12)
	seeds = append(seeds, []byte(``))
	seeds = append(seeds, []byte(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body/></soap:Envelope>`))
	seeds = append(seeds, []byte(`<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope"><env:Body/></env:Envelope>`))
	// Hostile payload shapes: duplicated children (must be rejected,
	// not last-wins) and element names Marshal must refuse to re-emit.
	seeds = append(seeds, []byte(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><m:echo xmlns:m="urn:x"><m:input>a</m:input><m:input>b</m:input></m:echo></soap:Body></soap:Envelope>`))
	seeds = append(seeds, []byte(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><m:echo xmlns:m="urn:x"><m:a.-_9>v</m:a.-_9></m:echo></soap:Body></soap:Envelope>`))
	// Hybrid seeds: 1.1 envelope + 1.2 fault machinery, in both the
	// foreign-namespace and foreign-shape variants.
	seeds = append(seeds, []byte(hybridFaultEnvelope))
	seeds = append(seeds, []byte(hybridShapeEnvelope))
	// SOAP machinery masquerading as payload.
	seeds = append(seeds, []byte(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><env:Fault xmlns:env="http://www.w3.org/2003/05/soap-envelope"><env:Code/></env:Fault></soap:Body></soap:Envelope>`))
	return seeds
}

func fuzzSeeds(f *testing.F) {
	f.Helper()
	for _, b := range fuzzSeedInputs(f) {
		f.Add(b)
	}
}

// FuzzUnmarshal exercises the strict 1.1 parser with arbitrary bytes:
// no panics, and any accepted message must re-marshal and re-parse.
func FuzzUnmarshal(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := V11.Unmarshal(data)
		if err != nil {
			return
		}
		out, err := V11.Marshal(m)
		if err != nil {
			// Messages with wrapper names that are not serializable
			// (e.g. containing spaces) are rejected at marshal time.
			return
		}
		if _, err := V11.Unmarshal(out); err != nil {
			t.Fatalf("marshal output failed to reparse: %v\n%s", err, out)
		}
	})
}

// FuzzCodecs drives both strict codecs, the lenient parsers and the
// Detect classifier over one corpus, checking the cross-version
// invariants:
//
//   - no parser panics;
//   - each strict codec's accepted output round-trips through itself;
//   - a message accepted by a strict codec is never labeled the other
//     pure version by Detect;
//   - whatever V11 accepts, V12 rejects, and vice versa (the codecs
//     partition the pure inputs).
func FuzzCodecs(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		v := Detect(data, "")
		m11, err11 := V11.Unmarshal(data)
		m12, err12 := V12.Unmarshal(data)
		if err11 == nil && err12 == nil {
			t.Fatalf("both codecs accepted one message (detect=%v):\n%s", v, data)
		}
		if err11 == nil && v != Version11 {
			t.Fatalf("V11 accepted a message Detect labels %v:\n%s", v, data)
		}
		if err12 == nil && v != Version12 {
			t.Fatalf("V12 accepted a message Detect labels %v:\n%s", v, data)
		}
		for _, rt := range []struct {
			c Codec
			m *Message
		}{{V11, m11}, {V12, m12}} {
			if rt.m == nil {
				continue
			}
			out, err := rt.c.Marshal(rt.m)
			if err != nil {
				continue
			}
			if _, err := rt.c.Unmarshal(out); err != nil {
				t.Fatalf("%v marshal output failed to reparse: %v\n%s", rt.c.Version(), err, out)
			}
		}
		// The lenient parsers must not panic and must agree with the
		// strict parsers on pure accepted inputs.
		flexMsg, flexErr := Scan(data).Flexible()
		if _, err := Scan(data).Coerce(); err != nil {
			_ = err
		}
		if err11 == nil && (flexErr != nil || flexMsg.Local != m11.Local) {
			t.Fatalf("flexible parser disagrees with V11 on pure input: %v", flexErr)
		}
		if err12 == nil && (flexErr != nil || flexMsg.Local != m12.Local) {
			t.Fatalf("flexible parser disagrees with V12 on pure input: %v", flexErr)
		}
	})
}

// FuzzDetect pins the classifier's stability: no panics, a stable
// result across repeated calls, and pure verdicts implying the strict
// codec of that version does not misfile the message as the *other*
// pure version.
func FuzzDetect(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		v := Detect(data, "")
		if v != Detect(data, "") {
			t.Fatal("Detect is not deterministic")
		}
		// A content-type signal may escalate a pure verdict to hybrid,
		// never flip it to the other pure version.
		withCT := Detect(data, ContentType12)
		if v == Version11 && withCT != VersionHybrid {
			t.Fatalf("v11 bytes + v12 media type = %v, want hybrid", withCT)
		}
		if v == Version12 && withCT != Version12 {
			t.Fatalf("v12 bytes + v12 media type = %v, want v12", withCT)
		}
	})
}
