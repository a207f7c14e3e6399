package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"testing"

	"wsinterop/internal/soap"
)

// TestClassifyPinned pins the meter class and retryability of each
// failed-attempt error, as the separate errors.As chains of the error
// counters and Retryable used to decide them: class by the first of
// fault, HTTP, version, decode and aborted the tree holds, retryability
// with a version mismatch outranking an HTTP status.
func TestClassifyPinned(t *testing.T) {
	want := map[string]struct {
		class string
		retry bool
	}{
		"fault":                   {"fault", false},
		"http-4xx":                {"http", false},
		"http-5xx":                {"http", true},
		"version":                 {"version", false},
		"decode":                  {"decode", true},
		"aborted":                 {"aborted", true},
		"unexpected-eof":          {"other", true},
		"net-error":               {"other", true},
		"url-error":               {"other", true},
		"other":                   {"other", false},
		"wrapped-fault":           {"fault", false},
		"wrapped-http-4xx":        {"http", false},
		"wrapped-http-5xx":        {"http", true},
		"wrapped-version":         {"version", false},
		"wrapped-decode":          {"decode", true},
		"wrapped-aborted":         {"aborted", true},
		"wrapped-unexpected-eof":  {"other", true},
		"wrapped-net-error":       {"other", true},
		"wrapped-url-error":       {"other", true},
		"wrapped-other":           {"other", false},
		"decode-wrapping-eof":     {"decode", true},
		"url-wrapping-aborted":    {"aborted", true},
		"joined-decode-fault":     {"fault", false},
		"joined-version-http-5xx": {"http", false},
		"joined-http-4xx-5xx":     {"http", false},
		"joined-aborted-net":      {"aborted", true},
	}
	names := []string{classFault: "fault", classHTTP: "http", classVersion: "version",
		classDecode: "decode", classAborted: "aborted", classOther: "other"}
	cases := classifyCases()
	if len(cases) != len(want) {
		t.Fatalf("%d cases, %d pinned", len(cases), len(want))
	}
	for _, c := range cases {
		class, retry := classify(c.err)
		w, ok := want[c.name]
		if !ok {
			t.Fatalf("case %s is not pinned", c.name)
		}
		if names[class] != w.class || retry != w.retry || Retryable(c.err) != w.retry {
			t.Errorf("%s: class %s, retryable %v; want %s, %v", c.name, names[class], retry, w.class, w.retry)
		}
	}
}

// classifyCases are failed-attempt errors: one of each typed condition,
// each wrapped once with %w, and trees that hold two conditions.
func classifyCases() []struct {
	name string
	err  error
} {
	type tc = struct {
		name string
		err  error
	}
	bare := []tc{
		{"fault", &soap.Fault{Code: soap.FaultServer, String: "boom"}},
		{"http-4xx", &HTTPError{Status: http.StatusNotFound}},
		{"http-5xx", &HTTPError{Status: http.StatusServiceUnavailable}},
		{"version", &VersionMismatchError{Want: soap.Version11, Got: soap.VersionHybrid}},
		{"decode", &soap.DecodeError{Reason: "malformed"}},
		{"aborted", ErrAborted},
		{"unexpected-eof", io.ErrUnexpectedEOF},
		{"net-error", &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("refused")}},
		{"url-error", &url.Error{Op: "Post", URL: "http://127.0.0.1/svc", Err: errors.New("refused")}},
		{"other", errors.New("other")},
	}
	cases := slices.Clone(bare)
	for _, c := range bare {
		cases = append(cases, tc{"wrapped-" + c.name, fmt.Errorf("attempt: %w", c.err)})
	}
	return append(cases,
		tc{"decode-wrapping-eof", &soap.DecodeError{Reason: "short", Err: io.ErrUnexpectedEOF}},
		tc{"url-wrapping-aborted", &url.Error{Op: "Post", URL: "http://127.0.0.1/svc", Err: ErrAborted}},
		tc{"joined-decode-fault", errors.Join(&soap.DecodeError{Reason: "x"}, &soap.Fault{Code: soap.FaultServer})},
		tc{"joined-version-http-5xx", errors.Join(&VersionMismatchError{Want: soap.Version11, Got: soap.Version12},
			&HTTPError{Status: http.StatusBadGateway})},
		tc{"joined-http-4xx-5xx", errors.Join(&HTTPError{Status: http.StatusBadRequest},
			&HTTPError{Status: http.StatusInternalServerError})},
		tc{"joined-aborted-net", errors.Join(ErrAborted, &net.OpError{Op: "read", Err: errors.New("reset")})},
	)
}
