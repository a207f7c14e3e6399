package campaign

// Tests for the campaign daemon (serve.go): the NDJSON campaign
// stream, campaign multiplexing, the status/report resources, and
// publishing a class's WSDL — plus its live SOAP endpoint — over real
// TCP through transport.Host.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsinterop/internal/framework"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
	"wsinterop/internal/typesys"
)

// postCampaign streams one campaign through the daemon and returns the
// decoded NDJSON lines.
func postCampaign(t *testing.T, base, spec string) []map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /campaigns: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /campaigns: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q does not parse: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(lines) == 0 {
		t.Fatal("stream produced no lines")
	}
	return lines
}

func TestDaemonCampaignStream(t *testing.T) {
	d := NewDaemon(nil)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	lines := postCampaign(t, ts.URL, `{"limit":30,"server":"Metro","workers":2}`)

	if lines[0]["type"] != "accepted" {
		t.Fatalf("first line = %v, want accepted", lines[0])
	}
	id, _ := lines[0]["id"].(string)
	if id == "" {
		t.Fatal("accepted line has no id")
	}
	last := lines[len(lines)-1]
	if last["type"] != "result" {
		t.Fatalf("last line = %v, want result", last)
	}
	progressed := 0
	for _, line := range lines[1 : len(lines)-1] {
		if line["type"] != "progress" {
			t.Errorf("mid-stream line type = %v, want progress", line["type"])
			continue
		}
		progressed++
	}
	if progressed == 0 {
		t.Error("stream carried no progress lines")
	}

	// The streamed summary must match a direct library run of the same
	// configuration — the daemon adds transport, not behavior.
	ref, err := New(WithLimit(30), WithServers(framework.NewMetroServer()), WithWorkers(2)).Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	summary, _ := last["summary"].(map[string]any)
	for key, want := range map[string]int{
		"totalServices":  ref.TotalServices,
		"totalPublished": ref.TotalPublished,
		"totalTests":     ref.TotalTests,
		"interopErrors":  ref.InteropErrors,
	} {
		if got := int(summary[key].(float64)); got != want {
			t.Errorf("summary %s = %d, want %d", key, got, want)
		}
	}

	// Status and report resources for the finished campaign.
	var status JobStatus
	getJSON(t, ts.URL+"/campaigns/"+id, &status)
	if status.State != "done" || status.ID != id {
		t.Errorf("status = %+v, want done/%s", status, id)
	}
	var list []JobStatus
	getJSON(t, ts.URL+"/campaigns", &list)
	if len(list) != 1 || list[0].ID != id {
		t.Errorf("campaign list = %+v, want one entry %s", list, id)
	}
	var rep struct {
		Result struct {
			TotalServices int
			TotalTests    int
		} `json:"result"`
		Metrics struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	getJSON(t, ts.URL+"/campaigns/"+id+"/report", &rep)
	if rep.Result.TotalServices != ref.TotalServices || rep.Result.TotalTests != ref.TotalTests {
		t.Errorf("report result = %+v, want totals %d/%d", rep.Result, ref.TotalServices, ref.TotalTests)
	}
	if len(rep.Metrics.Counters) == 0 {
		t.Error("report carries no metrics counters")
	}
}

// getJSON fetches url and decodes the response into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestDaemonMultiplexesCampaigns: two concurrent campaigns on one
// daemon, each on its own registry, both completing with their own
// results.
func TestDaemonMultiplexesCampaigns(t *testing.T) {
	d := NewDaemon(nil)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	specs := []string{
		`{"limit":20,"server":"Metro"}`,
		`{"limit":20,"server":"WCF"}`,
	}
	results := make([][]map[string]any, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = postCampaign(t, ts.URL, spec)
		}()
	}
	wg.Wait()

	ids := make(map[string]bool)
	for i, lines := range results {
		last := lines[len(lines)-1]
		if last["type"] != "result" {
			t.Errorf("campaign %d ended with %v, want result", i, last)
		}
		ids[lines[0]["id"].(string)] = true
	}
	if len(ids) != len(specs) {
		t.Errorf("campaign ids not unique: %v", ids)
	}
	var list []JobStatus
	getJSON(t, ts.URL+"/campaigns", &list)
	if len(list) != len(specs) {
		t.Fatalf("campaign list has %d entries, want %d", len(list), len(specs))
	}
	for _, st := range list {
		if st.State != "done" {
			t.Errorf("campaign %s state = %q, want done", st.ID, st.State)
		}
	}
}

func TestDaemonRequestErrors(t *testing.T) {
	d := NewDaemon(nil)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		return resp.StatusCode
	}
	for body, want := range map[string]int{
		"not json":         http.StatusBadRequest,
		`{"bogus":1}`:      http.StatusBadRequest, // unknown fields are refused
		`{"noPlan":true}`:  http.StatusBadRequest, // so is a removed knob: never silently ignored
		`{"reparse":true}`: http.StatusBadRequest, // the ablations are test-side oracles, not spec fields
		`{"noDedup":true}`: http.StatusBadRequest,
		`{"server":"zzz"}`: http.StatusBadRequest,
		`{"client":"zzz"}`: http.StatusBadRequest,
		`{"limit":-1}`:     http.StatusBadRequest,
	} {
		if got := post(body); got != want {
			t.Errorf("POST %q status = %d, want %d", body, got, want)
		}
	}
	// A refused spec registers no campaign: an old client never gets a
	// silent run without the knob it asked for.
	var list []JobStatus
	getJSON(t, ts.URL+"/campaigns", &list)
	if len(list) != 0 {
		t.Errorf("refused specs registered %d campaigns: %+v", len(list), list)
	}

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/campaigns/c9999", http.StatusNotFound},
		{http.MethodGet, "/campaigns/c9999/report", http.StatusNotFound},
		{http.MethodPut, "/campaigns", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/campaigns/c9999", http.StatusMethodNotAllowed},
		{http.MethodGet, "/services", http.StatusMethodNotAllowed},
		{http.MethodGet, "/healthz", http.StatusOK},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s status = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestDaemonServesWSDLOverTCP is the daemon acceptance check for the
// transport half: POST /services publishes a class on a framework, and
// both its WSDL and its live SOAP endpoint answer over a real TCP
// listener (transport.Host), not the in-process LocalBridge.
func TestDaemonServesWSDLOverTCP(t *testing.T) {
	d := NewDaemon(nil)
	base, err := d.Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("daemon start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	}()

	// A clean bean publishes without interop flags on every framework.
	cat := typesys.JavaCatalog()
	var class string
	for i := range cat.Classes {
		if cat.Classes[i].Kind == typesys.KindBean && cat.Classes[i].Hints == 0 {
			class = cat.Classes[i].Name
			break
		}
	}
	if class == "" {
		t.Fatal("no clean bean in the Java catalog")
	}

	publish := func() (pub struct {
		Path, WSDL, Namespace string
		AlreadyDeployed       bool `json:"alreadyDeployed"`
	}) {
		t.Helper()
		body := fmt.Sprintf(`{"server":"metro","class":%q}`, class)
		resp, err := http.Post(base+"/services", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /services: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /services: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
			t.Fatalf("publish response: %v", err)
		}
		return pub
	}

	pub := publish()
	if pub.AlreadyDeployed {
		t.Error("first publish reported alreadyDeployed")
	}

	// The WSDL over TCP.
	resp, err := http.Get(base + pub.WSDL)
	if err != nil {
		t.Fatalf("GET %s: %v", pub.WSDL, err)
	}
	wsdlBytes := make([]byte, 1<<20)
	n, _ := resp.Body.Read(wsdlBytes)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(wsdlBytes[:n]), "definitions") {
		t.Fatalf("GET %s: status %d, body %q", pub.WSDL, resp.StatusCode, wsdlBytes[:n])
	}

	// The live SOAP endpoint over TCP.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := transport.NewClient(nil).Invoke(ctx, base+pub.Path, "", &soap.Message{
		Namespace: pub.Namespace,
		Local:     "echo",
		Fields:    map[string]string{"input": "ping"},
	})
	if err != nil {
		t.Fatalf("SOAP invoke: %v", err)
	}
	if v, _ := reply.Field("input"); v != "ping" {
		t.Errorf("echoed value = %q, want ping", v)
	}

	// Publishing the same class again is idempotent.
	if again := publish(); !again.AlreadyDeployed || again.Path != pub.Path {
		t.Errorf("re-publish = %+v, want alreadyDeployed at %s", again, pub.Path)
	}

	// Unknown classes and ambiguous server names are refused.
	for body, want := range map[string]int{
		`{"server":"metro","class":"NoSuchClass"}`:     http.StatusNotFound,
		fmt.Sprintf(`{"server":"","class":%q}`, class): http.StatusBadRequest,
	} {
		resp, err := http.Post(base+"/services", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /services: %v", err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s status = %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// TestDaemonShutdownStopsServing: after Shutdown the listener is
// closed and new connections are refused.
func TestDaemonShutdownStopsServing(t *testing.T) {
	d := NewDaemon(nil)
	base, err := d.Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("daemon start: %v", err)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz before shutdown: %v", err)
	}
	_ = resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("daemon still serving after Shutdown")
	}
}

// FuzzCampaignSpec feeds arbitrary bodies through the daemon's
// POST /campaigns decode path. It must never panic; a refused body
// gets a 4xx from the daemon and registers no campaign; an accepted
// spec builds runners whose plan fingerprint is stable across builds.
func FuzzCampaignSpec(f *testing.F) {
	for _, seed := range []string{
		"not json", `{"bogus":1}`, `{"noPlan":true}`, `{"reparse":true}`, `{"noDedup":true}`,
		`{"server":"zzz"}`, `{"client":"zzz"}`, `{"limit":-1}`,
		`{"limit":3,"workers":2,"server":"metro","client":"axis","keepFailures":true}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(body))
		}
		rec := httptest.NewRecorder()
		_, opts, ok := decodeSpec(rec, post())
		if ok {
			if a, b := New(opts...).PlanFingerprint(), New(opts...).PlanFingerprint(); a != b {
				t.Fatalf("accepted spec %q: plan fingerprint %s, then %s", body, a, b)
			}
			return
		}
		if rec.Code < 400 || rec.Code > 499 {
			t.Fatalf("refused spec %q: status %d, want 4xx", body, rec.Code)
		}
		d := NewDaemon(nil)
		rec = httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, post())
		if rec.Code < 400 || rec.Code > 499 {
			t.Fatalf("daemon answered refused spec %q with status %d, want 4xx", body, rec.Code)
		}
		if n := len(d.order); n != 0 {
			t.Fatalf("refused spec %q registered %d campaigns", body, n)
		}
	})
}
