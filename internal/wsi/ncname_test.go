package wsi

import (
	"testing"
	"unicode/utf8"
)

// ncNameOracle is IsNCName over the rune tables alone: every name,
// ASCII or not, is UTF-8-validated and decoded rune by rune, and a
// non-ASCII name must also survive the parser probe.
func ncNameOracle(s string) bool {
	if s == "" || !utf8.ValidString(s) {
		return false
	}
	ascii := true
	for i, r := range s {
		if r >= utf8.RuneSelf {
			ascii = false
		}
		if i == 0 && !isNCNameStart(r) || i > 0 && !isNCNameChar(r) {
			return false
		}
	}
	return ascii || parserAcceptsName(s)
}

func TestIsNCNameMatchesRuneTables(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, s := range []string{string(rune(c)), "a" + string(rune(c)), string([]byte{byte(c)}), "a" + string([]byte{byte(c)})} {
			if got, want := IsNCName(s), ncNameOracle(s); got != want {
				t.Errorf("IsNCName(%q) = %v, rune tables say %v", s, got, want)
			}
		}
	}
}

// FuzzIsNCName checks that the ASCII fast path decides every string
// exactly as the rune tables do, including strings that turn
// non-ASCII or invalid UTF-8 after an ASCII prefix.
func FuzzIsNCName(f *testing.F) {
	for _, s := range []string{
		"", "_", "a", "Echo", "EchoSvc", "1Svc", "-a", ".a", "a-b.c_d9", "a:b",
		"svc-with.dots_и", "T·x", "и", "a\xff", "\xffa", "a͹", "a b", "a\x00",
		"Zz9ShapeSvcQx", "·a", "à",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := IsNCName(s), ncNameOracle(s); got != want {
			t.Errorf("IsNCName(%q) = %v, rune tables say %v", s, got, want)
		}
	})
}
