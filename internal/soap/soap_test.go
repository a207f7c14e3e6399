package soap

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testMessage() *Message {
	return &Message{
		Namespace: "http://svc.test/",
		Local:     "echo",
		Fields: map[string]string{
			"input": "hello",
			"count": "3",
		},
	}
}

func TestRoundTrip(t *testing.T) {
	orig := testMessage()
	data, err := V11.Marshal(orig)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := V11.Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	a, err := V11.Marshal(testMessage())
	if err != nil {
		t.Fatal(err)
	}
	b, err := V11.Marshal(testMessage())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("marshal is not deterministic (field ordering)")
	}
}

func TestMarshalRejectsAnonymous(t *testing.T) {
	if _, err := V11.Marshal(&Message{Namespace: "urn:x"}); err == nil {
		t.Error("expected error for missing wrapper name")
	}
}

func TestMarshalRejectsHostileNames(t *testing.T) {
	hostile := []string{
		"", " ", "1leading", "-dash", ".dot", "a b",
		"a><b", "a/><x", "a\"", "a&b", "name>inject</name><evil",
		"ns:qualified", "tab\tname", "new\nline",
	}
	for _, name := range hostile {
		if _, err := V11.Marshal(&Message{Namespace: "urn:x", Local: "echo",
			Fields: map[string]string{name: "v"}}); err == nil {
			t.Errorf("field name %q accepted; markup injection possible", name)
		}
		if name == "" {
			continue // covered by TestMarshalRejectsAnonymous
		}
		if _, err := V11.Marshal(&Message{Namespace: "urn:x", Local: name}); err == nil {
			t.Errorf("wrapper name %q accepted; markup injection possible", name)
		}
	}
}

func TestValidNCName(t *testing.T) {
	for _, ok := range []string{"a", "_x", "input", "Foo-bar.baz_2", "éléphant", "字段"} {
		if !ValidNCName(ok) {
			t.Errorf("ValidNCName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "9a", "-a", ".a", "a b", "a:b", "a<b", "a>b", "a&b", `a"b`} {
		if ValidNCName(bad) {
			t.Errorf("ValidNCName(%q) = true, want false", bad)
		}
	}
}

func TestUnmarshalRejectsDuplicateChildren(t *testing.T) {
	doc := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body>
    <m:echo xmlns:m="urn:x">
      <m:input>first</m:input>
      <m:input>second</m:input>
    </m:echo>
  </soap:Body>
</soap:Envelope>`
	var de *DecodeError
	_, err := V11.Unmarshal([]byte(doc))
	if !errors.As(err, &de) {
		t.Fatalf("duplicate children accepted (last-wins would mask corruption), got %v", err)
	}
	if !strings.Contains(de.Reason, "duplicate") {
		t.Errorf("reason = %q, want a duplicate-element rejection", de.Reason)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	f := &Fault{Code: FaultClient, String: "bad request", Detail: "missing element"}
	data, err := V11.MarshalFault(f)
	if err != nil {
		t.Fatalf("MarshalFault: %v", err)
	}
	_, err = V11.Unmarshal(data)
	var got *Fault
	if !errors.As(err, &got) {
		t.Fatalf("expected *Fault error, got %v", err)
	}
	if got.Code != f.Code || got.String != f.String || got.Detail != f.Detail {
		t.Errorf("fault mismatch: %+v vs %+v", got, f)
	}
	if !strings.Contains(got.Error(), "bad request") {
		t.Errorf("fault error string %q", got.Error())
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	var de *DecodeError
	if _, err := V11.Unmarshal([]byte("nope")); !errors.As(err, &de) {
		t.Errorf("expected DecodeError, got %v", err)
	}
}

func TestUnmarshalEmptyBody(t *testing.T) {
	doc := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body/></soap:Envelope>`
	_, err := V11.Unmarshal([]byte(doc))
	if !errors.Is(err, ErrNoBody) {
		t.Errorf("expected ErrNoBody, got %v", err)
	}
}

func TestFieldLookup(t *testing.T) {
	m := testMessage()
	if v, ok := m.Field("input"); !ok || v != "hello" {
		t.Errorf("Field(input) = %q, %v", v, ok)
	}
	if _, ok := m.Field("missing"); ok {
		t.Error("Field(missing) should not be found")
	}
}

// TestRoundTripProperty: any field map with NCName-safe keys survives
// the envelope round trip, including XML-hostile values.
func TestRoundTripProperty(t *testing.T) {
	names := []string{"input", "value", "count", "payload", "flag"}
	f := func(vals []string) bool {
		m := &Message{Namespace: "http://p.test/", Local: "echo", Fields: map[string]string{}}
		for i, v := range vals {
			if i >= len(names) {
				break
			}
			if strings.ContainsAny(v, "\x00\v\f") || !isValidXMLText(v) {
				return true // XML cannot carry these code points; skip
			}
			m.Fields[names[i]] = v
		}
		data, err := V11.Marshal(m)
		if err != nil {
			return false
		}
		got, err := V11.Unmarshal(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// isValidXMLText reports whether every rune is legal XML 1.0 CharData.
func isValidXMLText(s string) bool {
	for _, r := range s {
		ok := r == 0x9 || r == 0xA || r == 0xD ||
			(r >= 0x20 && r <= 0xD7FF) ||
			(r >= 0xE000 && r <= 0xFFFD) ||
			(r >= 0x10000 && r <= 0x10FFFF)
		if !ok {
			return false
		}
	}
	return true
}
