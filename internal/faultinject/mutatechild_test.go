package faultinject

import (
	"bytes"
	"regexp"
	"testing"

	"wsinterop/internal/soap"
)

// childLine is the oracle of firstChild: one single-line payload child
// of the canonical soap.Marshal wire format, indented
// "<m:name>value</m:name>", the first match of which mutateChild
// rewrites.
var childLine = regexp.MustCompile(`(?m)^( +)<m:([A-Za-z0-9_.-]+)>(.*)</m:[A-Za-z0-9_.-]+>$`)

// mutateChildRegexp is mutateChild over the childLine oracle.
func mutateChildRegexp(body []byte, duplicate bool) []byte {
	loc := childLine.FindSubmatchIndex(body)
	if loc == nil {
		return body
	}
	indent := string(body[loc[2]:loc[3]])
	name := string(body[loc[4]:loc[5]])
	value := string(body[loc[6]:loc[7]])
	var repl string
	if duplicate {
		orig := string(body[loc[0]:loc[1]])
		repl = orig + "\n" + indent + "<m:" + name + ">" + value + "x</m:" + name + ">"
	} else {
		repl = indent + "<m:" + name + "X>" + value + "</m:" + name + "X>"
	}
	out := make([]byte, 0, len(body)+len(repl))
	out = append(out, body[:loc[0]]...)
	out = append(out, repl...)
	return append(out, body[loc[1]:]...)
}

// FuzzMutateChildMatchesRegexp requires the line scan to rewrite every
// body exactly as the regexp does, duplicating and renaming.
func FuzzMutateChildMatchesRegexp(f *testing.F) {
	for _, c := range []soap.Codec{soap.V11, soap.V12} {
		for _, fields := range []map[string]string{
			{"input": "ping", "count": "3"},
			{"v": "a</m:b>c", "w": "x > y"},
			nil,
		} {
			b, err := c.Marshal(&soap.Message{Namespace: "urn:test", Local: "echoResponse", Fields: fields})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
			f.Add(bytes.ReplaceAll(b, []byte("\n"), []byte("\r\n")))
		}
	}
	for _, s := range []string{
		"",
		"<m:a>1</m:a>\n",
		"<html><body>upstream said no</body></html>\n",
		"  <m:a></m:a>",
		"  <m:a>x</m:b>\n  <m:c>y</m:c>\n",
		"  <m:a>1</m:a>\r\n  <m:b>2</m:b>",
		"  <m:a>v</m:a></m:b>\n",
		"  <m:a>v</m:x:a>\n  <m:b>w</m:b>",
		"    <m:echoResponse xmlns:m=\"urn:test\">v</m:echoResponse>\n      <m:a>1</m:a>\n",
		"\t<m:a>1</m:a>\n <m:>1</m:a>\n <m:a>1</m:>\n <m:a></m:a \n <m:a>",
		" <m:a>\xff\xfe</m:a>",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, duplicate := range []bool{true, false} {
			got, want := mutateChild(body, duplicate), mutateChildRegexp(body, duplicate)
			if !bytes.Equal(got, want) {
				t.Fatalf("mutateChild(%q, %v)\n got %q\nwant %q", body, duplicate, got, want)
			}
		}
	})
}
