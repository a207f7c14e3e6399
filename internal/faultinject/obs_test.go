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

	inj.Arm(Fault{Kind: KindTruncate})
	req := httptest.NewRequest(http.MethodPost, "/svc", nil)
	inj.ServeHTTP(httptest.NewRecorder(), req)

	if n := reg.Counter("faultinject.injected").Value(); n != 1 {
		t.Errorf("injected counter = %d, want 1", n)
	}
	if n := reg.Counter("faultinject.injected.truncate").Value(); n != 1 {
		t.Errorf("per-kind counter = %d, want 1", n)
	}

	// An unknown kind is rejected, not counted: arbitrary kinds must
	// not mint counter names.
	inj.Arm(Fault{Kind: "bogus-kind"})
	bad := httptest.NewRequest(http.MethodPost, "/svc", nil)
	rec := httptest.NewRecorder()
	inj.ServeHTTP(rec, bad)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unknown kind status = %d, want 500", rec.Code)
	}
	if reg.Counter("faultinject.injected").Value() != 1 {
		t.Error("unknown kind was counted")
	}

	// A transient fault past its attempt window passes through without
	// firing — and without a count.
	inj.Arm(Fault{Kind: KindTruncate, Times: 1})
	inj.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/svc", nil))
	if reg.Counter("faultinject.injected").Value() != 2 {
		t.Error("first attempt of a transient fault was not counted")
	}
	done := httptest.NewRequest(http.MethodPost, "/svc", nil)
	rec = httptest.NewRecorder()
	inj.ServeHTTP(rec, done)
	if rec.Body.String() != "0123456789" {
		t.Errorf("expired fault body = %q, want passthrough", rec.Body.String())
	}
	if reg.Counter("faultinject.injected").Value() != 2 {
		t.Error("expired transient fault was counted")
	}
}
