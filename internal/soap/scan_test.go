package soap

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const (
	env11Open = `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">`
	env12Open = `<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">`
)

// quirkSeeds are the old decoders' edge behaviors the one-walk readers
// must keep, one document each.
var quirkSeeds = []string{
	// Detect stops at the first token error, even after the root.
	env11Open + `<soap:Body><m:e xmlns:m="urn:x"><m:a>1</m:a></m:e></soap:Body></soap:Envelope><`,
	env11Open + `<soap:Body><m:e xmlns:m="urn:x"/></soap:Body></soap:Envelope>&bogus;`,
	// A token error inside the root, before and after a hybrid signal.
	env11Open + `<soap:Body><soap:Fault><faultcode>c</faultcode><env:Code xmlns:env="http://www.w3.org/2003/05/soap-envelope"/>&x;</soap:Fault></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><m:e xmlns:m="urn:x"><m:a>1</m:b></m:e></soap:Body></soap:Envelope>`,
	// A later root-level Envelope overwrites the root namespace; a
	// later non-Envelope root stops Detect but is the lenient parsers'
	// last root.
	env11Open + `<soap:Body><m:e xmlns:m="urn:x"><m:a>1</m:a></m:e></soap:Body></soap:Envelope>` + env12Open + `<env:Body/></env:Envelope>`,
	env11Open + `<soap:Body><soap:Fault><env:Code xmlns:env="http://www.w3.org/2003/05/soap-envelope"/></soap:Fault></soap:Body></soap:Envelope><x/>`,
	`<x/>` + env11Open + `<soap:Body><m:e xmlns:m="urn:x"/></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><env:Fault xmlns:env="http://www.w3.org/2003/05/soap-envelope"/></soap:Body></soap:Envelope>` + env11Open + `<soap:Body><m:z xmlns:m="urn:z"><m:k>v</m:k></m:z></soap:Body></soap:Envelope>`,
	// The strict parse checks the root name before its namespace.
	`<Envelope xmlns="urn:other"><Body/></Envelope>`,
	`<Envelope><Body/></Envelope>`,
	`<Foo xmlns="urn:other"/>`,
	`<?xml version="1.0"?><!-- no root -->`,
	"   ",
	// Repeated Body elements accumulate; repeated Fault elements fill
	// one fault; the payload is named after the last non-Fault child and
	// collects the children of all of them.
	env11Open + `<soap:Body><m:a xmlns:m="urn:x"><m:p>1</m:p></m:a></soap:Body><soap:Body><m:b xmlns:m="urn:y"><m:q>2</m:q></m:b></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><m:a xmlns:m="urn:x"><m:p>1</m:p></m:a><m:b xmlns:m="urn:y"><m:p>2</m:p></m:b></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><soap:Fault><faultcode>a</faultcode><faultstring>s</faultstring></soap:Fault><soap:Fault><faultstring>b</faultstring><faultstring></faultstring></soap:Fault></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><m:a xmlns:m="urn:x"/><soap:Fault><faultcode>a</faultcode></soap:Fault></soap:Body></soap:Envelope>`,
	env12Open + `<env:Body><env:Fault><env:Code><env:Value>a</env:Value></env:Code><env:Code><env:Value>b</env:Value></env:Code><env:Code/></env:Fault><env:Fault><env:Reason><env:Text>r</env:Text></env:Reason></env:Fault></env:Body></env:Envelope>`,
	// Child text is direct character data only, CDATA included.
	env11Open + `<soap:Body><m:e xmlns:m="urn:x"><m:p>a<![CDATA[<b>&]]><m:x>hidden</m:x>c<!-- note -->d</m:p></m:e></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><soap:Fault><faultcode>a<x>hidden</x>b</faultcode><faultstring><![CDATA[s]]></faultstring></soap:Fault></soap:Body></soap:Envelope>`,
	// 1.1 fault fields match by local name in any namespace; 1.2 fault
	// fields only in the 1.2 namespace.
	env11Open + `<soap:Body><soap:Fault><q:faultcode xmlns:q="urn:q">c</q:faultcode><q:detail xmlns:q="urn:q">d</q:detail><faultactor>a</faultactor></soap:Fault></soap:Body></soap:Envelope>`,
	env12Open + `<env:Body><env:Fault><env:Code><env:Value>a</env:Value><Value>no</Value></env:Code><Reason><Text>no</Text></Reason><q:Node xmlns:q="urn:q">n</q:Node><env:Node>m</env:Node><env:Detail>d</env:Detail></env:Fault></env:Body></env:Envelope>`,
	// Hybrids the lenient parsers read by hand, including a fault by
	// local name and a document past the nesting cap.
	env11Open + `<soap:Body><env:Fault xmlns:env="http://www.w3.org/2003/05/soap-envelope"><faultcode>c</faultcode><faultstring>s</faultstring><faultactor>a</faultactor><env:Node>n</env:Node><detail>d</detail><env:Code>x<env:Value>v</env:Value><Value>w</Value></env:Code><env:Reason><Text>t</Text></env:Reason></env:Fault></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><env:Fault xmlns:env="http://www.w3.org/2003/05/soap-envelope"><env:Code/></env:Fault><m:e xmlns:m="urn:x"/></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><soap:Fault><env:Code xmlns:env="http://www.w3.org/2003/05/soap-envelope"/>` + strings.Repeat("<d>", 40) + strings.Repeat("</d>", 40) + `</soap:Fault></soap:Body></soap:Envelope>`,
	env11Open + `<soap:Body><soap:Fault><env:Code xmlns:env="http://www.w3.org/2003/05/soap-envelope"/>` + strings.Repeat("<d>", 40) + `</soap:Fault></soap:Body></soap:Envelope>`,
	env11Open + `<x:Body xmlns:x="urn:x"><m:e xmlns:m="urn:x"><m:a>1</m:a><m:a>2</m:a></m:e></x:Body><soap:Body><soap:Fault><soap:Reason/></soap:Fault></soap:Body></soap:Envelope>`,
	// Coerce recognizes a fault only by its faultcode child.
	env12Open + `<env:Body><env:Fault><faultcode>c</faultcode><faultcode>d</faultcode><faultstring>s</faultstring></env:Fault></env:Body></env:Envelope>`,
	// Payload elements in an envelope namespace are machinery, not data.
	env11Open + `<soap:Body><soap:echo><soap:a>1</soap:a></soap:echo></soap:Body></soap:Envelope>`,
}

// echoResponse is the canonical echo-service response the campaigns'
// clients decode.
func echoResponse(tb testing.TB) []byte {
	tb.Helper()
	out, err := V11.Marshal(&Message{
		Namespace: "http://bench.test/", Local: "echoResponse",
		Fields: map[string]string{"input": "payload", "count": "7"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// wireMutations reproduces the body-level faults the fault injector
// applies to a response, plus the version matrix's hybrid-fault body,
// so the readers are pinned on the exact bytes the campaigns decode.
func wireMutations(tb testing.TB) [][]byte {
	tb.Helper()
	body := echoResponse(tb)
	child := []byte("      <m:count>7</m:count>")
	at := bytes.Index(body, child)
	if at < 0 {
		tb.Fatalf("canonical response has no count child:\n%s", body)
	}
	splice := func(repl string) []byte {
		return []byte(string(body[:at]) + repl + string(body[at+len(child):]))
	}
	html := "<html><head><title>502 Bad Gateway</title></head>" +
		"<body><h1>Bad Gateway</h1><p>upstream produced an invalid response</p></body></html>\n"
	cut := bytes.LastIndex(body, []byte(V11.EnvelopeClose()))
	oversize := append(append(append([]byte{}, body[:cut]...), bytes.Repeat([]byte(" "), 1<<20)...), body[cut:]...)[:1<<20]
	hybridFault, err := V12.MarshalFault(&Fault{Code: Fault12Receiver, String: "relayed upstream failure"})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		body[:len(body)/2], // truncate
		[]byte(html),       // html-error
		nil,                // empty-body
		splice(string(child) + "\n      <m:count>7x</m:count>"), // dup-child
		splice("      <m:countX>7</m:countX>"),                  // rename-child
		oversize,
		hybridFault,
	}
}

// scanSeedInputs is FuzzScanMatchesOracle's seed corpus.
func scanSeedInputs(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := fuzzSeedInputs(tb)
	for _, s := range quirkSeeds {
		seeds = append(seeds, []byte(s))
	}
	seeds = append(seeds, wireMutations(tb)...)
	return append(seeds, []byte(sample12Envelope))
}

func scanSeeds(f *testing.F) {
	for _, b := range scanSeedInputs(f) {
		f.Add(b)
	}
}

// sameOutcome reports how two parses of one message differ: message,
// error type, error text and, for a *DecodeError, its Version and
// wrapped error type. It returns "" when they agree.
func sameOutcome(gotM *Message, gotErr error, wantM *Message, wantErr error) string {
	if !reflect.DeepEqual(gotM, wantM) {
		return fmt.Sprintf("message %+v, oracle %+v", gotM, wantM)
	}
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
	}
	if gotErr == nil {
		return ""
	}
	if fmt.Sprintf("%T", gotErr) != fmt.Sprintf("%T", wantErr) || gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("error %T %q, oracle %T %q", gotErr, gotErr, wantErr, wantErr)
	}
	var gd, wd *DecodeError
	if errors.As(gotErr, &gd) && errors.As(wantErr, &wd) {
		if gd.Version != wd.Version || fmt.Sprintf("%T", gd.Err) != fmt.Sprintf("%T", wd.Err) {
			return fmt.Sprintf("decode error version %v (%T), oracle %v (%T)", gd.Version, gd.Err, wd.Version, wd.Err)
		}
	}
	var gf, wf *Fault
	if errors.As(gotErr, &gf) && errors.As(wantErr, &wf) && *gf != *wf {
		return fmt.Sprintf("fault %+v, oracle %+v", *gf, *wf)
	}
	return ""
}

// checkScanMatchesOracle runs every reader against its oracle.
func checkScanMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	for _, ct := range []string{"", ContentType, ContentType12, "text/html"} {
		if got, want := Detect(data, ct), oracleDetect(data, ct); got != want {
			t.Fatalf("Detect(%q) = %v, oracle %v\n%q", ct, got, want, data)
		}
	}
	readers := []struct {
		name   string
		got    func([]byte) (*Message, error)
		oracle func([]byte) (*Message, error)
	}{
		{"V11", V11.Unmarshal, oracleUnmarshal11},
		{"V12", V12.Unmarshal, oracleUnmarshal12},
		{"Flexible", func(b []byte) (*Message, error) { return Scan(b).Flexible() }, oracleFlexible},
		{"Coerce", func(b []byte) (*Message, error) { return Scan(b).Coerce() }, oracleCoerce},
	}
	for _, r := range readers {
		gotM, gotErr := r.got(data)
		wantM, wantErr := r.oracle(data)
		if diff := sameOutcome(gotM, gotErr, wantM, wantErr); diff != "" {
			t.Fatalf("%s: %s\n%q", r.name, diff, data)
		}
	}
}

// TestScanMatchesOracleSeeds runs the differential check over the seed
// corpus on every plain go test.
func TestScanMatchesOracleSeeds(t *testing.T) {
	var seeds [][]byte
	for _, s := range quirkSeeds {
		seeds = append(seeds, []byte(s))
	}
	seeds = append(seeds, wireMutations(t)...)
	seeds = append(seeds, []byte(sample12Envelope), []byte(hybridFaultEnvelope), []byte(hybridShapeEnvelope))
	for i, data := range seeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkScanMatchesOracle(t, data) })
	}
}

// FuzzScanMatchesOracle requires Detect and the four parsers to agree
// with the decoders they replaced on arbitrary bytes.
func FuzzScanMatchesOracle(f *testing.F) {
	scanSeeds(f)
	f.Fuzz(checkScanMatchesOracle)
}

// FuzzMarshalMatchesOracle requires the envelope writers to emit the
// fmt-based writer's bytes and errors exactly.
func FuzzMarshalMatchesOracle(f *testing.F) {
	f.Add("echo", "http://svc.test/", "input", "hello", "count", "3", "soap:Client", "boom", "", "")
	f.Add("echoResponse", `urn:"q"`, "a", "<&>\"'\t\n\r", "b", "\x00\xffé�", "c&d", "<s>", "actor", "detail")
	f.Add("", "", "", "", "", "", "", "", "", "")
	f.Add("bad name", "urn:x", "ok", "v", "bad>", "v", "", "", "", "")
	f.Fuzz(func(t *testing.T, local, ns, k1, v1, k2, v2, code, str, actor, detail string) {
		m := &Message{Namespace: ns, Local: local, Fields: map[string]string{k1: v1, k2: v2}}
		for _, c := range []struct {
			codec  Codec
			prefix string
			ns     string
		}{{V11, "soap", NamespaceEnvelope}, {V12, "env", NamespaceEnvelope12}} {
			got, gotErr := c.codec.Marshal(m)
			want, wantErr := oracleMarshalMessage(c.prefix, c.ns, m)
			sameErr := fmt.Sprint(gotErr) == fmt.Sprint(wantErr)
			if bothFields := "soap: field name "; gotErr != nil && wantErr != nil &&
				strings.HasPrefix(gotErr.Error(), bothFields) && strings.HasPrefix(wantErr.Error(), bothFields) {
				// With two invalid field names, map order picks the one
				// either writer reports.
				sameErr = true
			}
			if !sameErr || !bytes.Equal(got, want) {
				t.Fatalf("%v Marshal = %q, %v\noracle %q, %v", c.codec.Version(), got, gotErr, want, wantErr)
			}
		}
		fault := &Fault{Code: code, String: str, Actor: actor, Detail: detail}
		if got, err := V11.MarshalFault(fault); err != nil || !bytes.Equal(got, oracleMarshalFault11(fault)) {
			t.Fatalf("V11 MarshalFault = %q, %v\noracle %q", got, err, oracleMarshalFault11(fault))
		}
		if got, err := V12.MarshalFault(fault); err != nil || !bytes.Equal(got, oracleMarshalFault12(fault)) {
			t.Fatalf("V12 MarshalFault = %q, %v\noracle %q", got, err, oracleMarshalFault12(fault))
		}
		if got, want := V12.ContentType(str), oracleContentType12(str); got != want {
			t.Fatalf("V12 ContentType = %q, oracle %q", got, want)
		}
	})
}

// TestEnvelopeDecodeAllocs pins the decode path's allocations: one
// scan plus the strict parse of a canonical echo response, as the
// transport decodes it, and the writer that produced it. The reflective
// two-walk decoder took 208 allocations, the encoding/xml scan 69 and
// the fmt writer 19; the xmltok scan takes 8.
func TestEnvelopeDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	body := echoResponse(t)
	decode := testing.AllocsPerRun(100, func() {
		s := Scan(body)
		_ = s.Detect(ContentType)
		if _, err := V11.UnmarshalScanned(s); err != nil {
			t.Fatal(err)
		}
	})
	if decode > 12 {
		t.Errorf("scan + V11 parse of an echo response: %.0f allocs, want <= 12", decode)
	}
	msg := &Message{
		Namespace: "http://bench.test/", Local: "echoResponse",
		Fields: map[string]string{"input": "payload", "count": "7"},
	}
	marshal := testing.AllocsPerRun(100, func() {
		if _, err := V11.Marshal(msg); err != nil {
			t.Fatal(err)
		}
	})
	if marshal > 8 {
		t.Errorf("V11.Marshal of an echo response: %.0f allocs, want <= 8", marshal)
	}
	t.Logf("decode %.0f allocs, marshal %.0f allocs", decode, marshal)
}
