package xmltok_test

import (
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wsinterop/internal/soap"
	"wsinterop/internal/xmltok"
	"wsinterop/internal/xmltok/xmltoktest"
)

// collect drains a stream, copying each token's text.
func collect(src xmltok.Stream) ([]xmltok.Token, error) {
	var toks []xmltok.Token
	for {
		t, ok := src.Next()
		if !ok {
			return toks, src.Err()
		}
		if t.Text != nil {
			t.Text = append([]byte{}, t.Text...)
		}
		toks = append(toks, t)
	}
}

// scanAll runs a fresh Scanner over data.
func scanAll(data []byte) ([]xmltok.Token, bool) {
	s := xmltok.NewScanner(data)
	toks, _ := collect(s)
	return toks, s.Declined()
}

// checkMatchesXML fails when the scanner accepts data and encoding/xml
// rejects it or reads a different start/end/char-data stream. It
// reports whether the scanner accepted.
func checkMatchesXML(t *testing.T, data []byte) bool {
	t.Helper()
	got, declined := scanAll(data)
	if declined {
		return false
	}
	want, err := collect(xmltok.NewXMLStream(data))
	if err != io.EOF {
		t.Fatalf("scanner accepted what encoding/xml rejects (%v):\n%q", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("token streams differ on %q\nscanner:      %s\nencoding/xml: %s", data, render(got), render(want))
	}
	return true
}

func render(toks []xmltok.Token) string {
	var b strings.Builder
	for _, t := range toks {
		switch t.Kind {
		case xmltok.StartElement:
			fmt.Fprintf(&b, "<{%s}%s>", t.Name.Space, t.Name.Local)
		case xmltok.EndElement:
			fmt.Fprintf(&b, "</{%s}%s>", t.Name.Space, t.Name.Local)
		case xmltok.CharData:
			fmt.Fprintf(&b, "%q", t.Text)
		}
	}
	return b.String()
}

// accepted are inputs inside the subset, chosen to pin the name
// resolution rules and the tag grammar's corners.
var accepted = []string{
	``,
	"  \n",
	`<a/>`,
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n<a>x</a>\n",
	`text<a/>more<b></b>tail`,
	`<a  x = "1"y='2'	z="'>"/>`,
	"<a\n>t]]x]>]</a\t\n>",
	// A default namespace applies to unprefixed elements only.
	`<a xmlns="urn:d"><p:b xmlns:p="urn:p"><c/></p:b></a>`,
	// An unbound prefix stays in Space as written.
	`<q:a><q:b xmlns:r="urn:r"/></q:a>`,
	// Rebinding: innermost and last-declared win, and bindings leave
	// scope with their element.
	`<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2" xmlns:p="urn:3"><p:c/></p:b><p:d/></p:a>`,
	`<a xmlns="urn:1"><b xmlns=""><c/></b><d/></a>`,
	`<p:a xmlns:p=""/>`,
	// The element's own declarations resolve its end tag.
	`<p:a xmlns:p="urn:p">x</p:a>`,
	// Declarations of the reserved prefixes, and attributes using them.
	`<a xmlns:xml="urn:x" xmlns:xmlns="urn:y" xml:lang="en"/>`,
	// Several roots.
	`<a/><b/>`,
	"<a>\t\n</a>",
}

// declined are inputs outside the subset, one construct each.
var declined = []string{
	`<!-- c --><a/>`,
	`<a><![CDATA[x]]></a>`,
	`<!DOCTYPE a><a/>`,
	`<?xml version="1.0"?><a/>`,
	`<a/><?pi x?>`,
	`<a>&amp;</a>`,
	`<a>&#34;</a>`,
	`<a x="&amp;"/>`,
	`<a x="<"/>`,
	"<a>\r\n</a>",
	"<a x=\"\t\"/>",
	"<a>\x01</a>",
	"<a>\x7f</a>",
	"<a>é</a>",
	`<a>]]></a>`,
	`<a></b>`,
	`<p:a xmlns:p="u"></q:a>`,
	`<p:a xmlns:p="u" xmlns:q="u"></q:a>`,
	`</a>`,
	`<a>`,
	`<a`,
	`<a x="1`,
	`<`,
	`<a></a`,
	`<xml:a/>`,
	`<xmlns:a/>`,
	`<xmlns/>`,
	`<a:b:c/>`,
	`<:a/>`,
	`<a:/>`,
	`<1a/>`,
	`<a x/>`,
	`<a x=1/>`,
	`<a/ >`,
	`< a/>`,
	`<a:1/>`,
}

func TestScannerSubset(t *testing.T) {
	for i, in := range accepted {
		t.Run(fmt.Sprintf("accept/%d", i), func(t *testing.T) {
			if !checkMatchesXML(t, []byte(in)) {
				t.Fatalf("scanner declined %q", in)
			}
		})
	}
	for i, in := range declined {
		t.Run(fmt.Sprintf("decline/%d", i), func(t *testing.T) {
			if checkMatchesXML(t, []byte(in)) {
				t.Fatalf("scanner accepted %q", in)
			}
		})
	}
}

// TestScannerReset pins Reset: a scanner that declined one input, or
// stopped partway through another, reads the next one afresh.
func TestScannerReset(t *testing.T) {
	s := xmltok.NewScanner([]byte(`<p:a xmlns:p="urn:p"><p:b>`))
	if _, err := collect(s); err != xmltok.ErrDeclined || !s.Declined() {
		t.Fatalf("unclosed input: %v, want a decline", err)
	}
	s.Reset([]byte(`<p:a xmlns:p="urn:p"><p:b/>`))
	s.Next()
	s.Next()
	s.Reset([]byte(`<p:c/>`))
	got, err := collect(s)
	if err != io.EOF || len(got) != 2 || got[0].Name != (xml.Name{Space: "p", Local: "c"}) {
		t.Fatalf("reset scanner read %s, %v", render(got), err)
	}
}

// TestWalkFallsBack pins the decline-and-rerun rule: a declined input
// is walked again from byte 0 on encoding/xml, and only that walk's
// result is returned.
func TestWalkFallsBack(t *testing.T) {
	walk := func(src xmltok.Stream) string {
		toks, err := collect(src)
		_, fast := src.(*xmltok.Scanner)
		return fmt.Sprintf("fast=%v %s %v", fast, render(toks), err)
	}
	for _, c := range []struct{ in, want string }{
		{`<a>x</a>`, `fast=true <{}a>"x"</{}a> EOF`},
		{`<a>&amp;</a>`, `fast=false <{}a>"&"</{}a> EOF`},
		{`<a><b></a>`, `fast=false <{}a><{}b> XML syntax error on line 1: element <b> closed by </a>`},
	} {
		if got := xmltok.Walk([]byte(c.in), walk); got != c.want {
			t.Errorf("Walk(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWalkConcurrent walks several inputs from several goroutines at
// once, so the race detector sees the pooled scanners and their name
// caches shared across walks.
func TestWalkConcurrent(t *testing.T) {
	var inputs [][]byte
	var want []string
	walk := func(src xmltok.Stream) string {
		toks, err := collect(src)
		return render(toks) + " " + fmt.Sprint(err)
	}
	for _, data := range xmltoktest.CodecOutputs(t) {
		inputs = append(inputs, data)
		want = append(want, walk(xmltok.NewXMLStream(data)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % len(inputs)
				if got := xmltok.Walk(inputs[k], walk); got != want[k] {
					t.Errorf("walk %d read %s, want %s", k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCodecOutputsTakeFastPath fails when an envelope the codecs
// write leaves the scanner's subset, which would silently send all
// traffic to the encoding/xml fallback.
func TestCodecOutputsTakeFastPath(t *testing.T) {
	for name, data := range xmltoktest.CodecOutputs(t) {
		t.Run(name, func(t *testing.T) {
			if !checkMatchesXML(t, data) {
				t.Fatalf("scanner declined a codec output:\n%s", data)
			}
		})
	}
}

// TestFaultBodiesMatchXML runs the differential check over every
// injected fault body.
func TestFaultBodiesMatchXML(t *testing.T) {
	for name, data := range xmltoktest.FaultBodies(t) {
		t.Run(name, func(t *testing.T) { checkMatchesXML(t, data) })
	}
}

// FuzzTokenizerMatchesXML requires that whenever the scanner accepts
// an input, encoding/xml accepts it too and reads the same start, end
// and character-data tokens.
func FuzzTokenizerMatchesXML(f *testing.F) {
	for _, s := range accepted {
		f.Add([]byte(s))
	}
	for _, s := range declined {
		f.Add([]byte(s))
	}
	for _, b := range xmltoktest.CodecOutputs(f) {
		f.Add(b)
	}
	// Escaped values take the fallback.
	escaped, err := soap.V11.Marshal(&soap.Message{
		Namespace: "urn:x", Local: "e", Fields: map[string]string{"v": "<&>\"'\r\t\x01é"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(escaped)
	for _, b := range xmltoktest.FaultBodies(f) {
		if len(b) > 4096 {
			b = b[:4096] // the oversize fault's padding adds nothing
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkMatchesXML(t, data) })
}
