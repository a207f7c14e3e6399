package faultinject

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"wsinterop/internal/obs"
)

func TestInjectionLogAndCounters(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("0123456789"))
	})
	reg := obs.NewRegistry()
	inj := New(inner)
	inj.Obs = reg

	req := httptest.NewRequest(http.MethodPost, "/svc", nil)
	req.Header.Set(HeaderFault, string(KindTruncate))
	req.Header.Set(HeaderAttempt, "2")
	req.Header.Set(obs.TraceHeader, "feedface00000000")
	inj.ServeHTTP(httptest.NewRecorder(), req)

	if n := reg.Counter("faultinject.injected").Value(); n != 1 {
		t.Errorf("injected counter = %d, want 1", n)
	}
	if n := reg.Counter("faultinject.injected.truncate").Value(); n != 1 {
		t.Errorf("per-kind counter = %d, want 1", n)
	}

	// An unknown directive is rejected, not counted: arbitrary header
	// input must not mint counter names.
	bad := httptest.NewRequest(http.MethodPost, "/svc", nil)
	bad.Header.Set(HeaderFault, "bogus-kind")
	rec := httptest.NewRecorder()
	inj.ServeHTTP(rec, bad)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unknown directive status = %d, want 500", rec.Code)
	}
	if reg.Counter("faultinject.injected").Value() != 1 {
		t.Error("unknown directive was counted")
	}

	// A transient fault past its attempt window passes through without
	// firing — and without a count.
	done := httptest.NewRequest(http.MethodPost, "/svc", nil)
	done.Header.Set(HeaderFault, string(KindTruncate)+";times=1")
	done.Header.Set(HeaderAttempt, "2")
	rec = httptest.NewRecorder()
	inj.ServeHTTP(rec, done)
	if rec.Body.String() != "0123456789" {
		t.Errorf("expired fault body = %q, want passthrough", rec.Body.String())
	}
	if reg.Counter("faultinject.injected").Value() != 1 {
		t.Error("expired transient fault was counted")
	}
}
