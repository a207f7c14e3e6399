package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsinterop/internal/obs"
)

func TestRunScaledAllReports(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "120", "-report", "all"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig. 4", "Table III", "Main findings", "Paper vs measured",
		"Failure index", "bar chart",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing section %q", want)
		}
	}
}

func TestRunSingleReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "100", "-report", "findings"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "tests executed") {
		t.Errorf("findings missing:\n%s", out)
	}
	if strings.Contains(out, "Table III") {
		t.Error("single report should not print other sections")
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "60", "-report", "json"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"totalTests"`, `"matrix"`, `"communication"`, `"paperComparison"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

func TestRunCommReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "60", "-report", "comm"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "no-operations") {
		t.Errorf("communication report missing:\n%s", buf.String())
	}
}

func TestRunFaultsReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "40", "-report", "robust"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Robustness extension", "status-500", "abort-once",
		"wrong-success cells: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("robust report missing %q:\n%s", want, out)
		}
	}
}

// TestRunFaultsDeterministicOutput is the CLI-level acceptance check:
// `interop -faults` must print a byte-identical matrix at any worker
// count.
func TestRunFaultsDeterministicOutput(t *testing.T) {
	var serial, parallel bytes.Buffer
	if err := run([]string{"-limit", "40", "-workers", "1", "-faults", "-report", "robust"}, &serial); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if err := run([]string{"-limit", "40", "-workers", "8", "-faults", "-report", "robust"}, &parallel); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("fault matrix differs across worker counts:\n--- workers=1 ---\n%s--- workers=8 ---\n%s",
			serial.String(), parallel.String())
	}
}

func TestRunVersionsReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "40", "-report", "versions"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Version matrix extension", "hybrid-fault", "typed-reject",
		"hybrid-fault cells accepted: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("versions report missing %q:\n%s", want, out)
		}
	}
}

// TestRunVersionsMergeCLI: shard workers journal the version matrix
// alongside the static campaign, and -merge -report versions folds
// them into the same report a single process prints (modulo the
// deploy-set-dependent path-collision line, absent at this scale).
func TestRunVersionsMergeCLI(t *testing.T) {
	var single bytes.Buffer
	if err := run([]string{"-limit", "20", "-report", "versions"}, &single); err != nil {
		t.Fatalf("single run: %v", err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		var buf bytes.Buffer
		args := []string{
			"-limit", "20", "-report", "versions",
			"-shard", fmt.Sprintf("%d/%d", i, len(dirs)), "-checkpoint", dir,
		}
		if err := run(args, &buf); err != nil {
			t.Fatalf("shard %d run: %v", i, err)
		}
	}
	var merged bytes.Buffer
	if err := run([]string{"-limit", "20", "-report", "versions", "-merge", strings.Join(dirs, ",")}, &merged); err != nil {
		t.Fatalf("merge run: %v", err)
	}
	if merged.String() != single.String() {
		t.Errorf("merged versions report differs from single-process run:\n--- single ---\n%s--- merged ---\n%s",
			single.String(), merged.String())
	}
}

func TestRunServerClientFilters(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "60", "-server", "metro", "-client", "axis1", "-report", "table3"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "Apache Axis1") || strings.Contains(out, "gSOAP") {
		t.Errorf("filtering broken:\n%s", out)
	}
}

func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	var buf bytes.Buffer
	if err := run([]string{"-limit", "40", "-report", "findings", "-cpuprofile", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if info.Size() == 0 {
		t.Error("profile file is empty")
	}
	if err := run([]string{"-limit", "10", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "x.prof")}, &buf); err == nil {
		t.Error("unwritable profile path should fail")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-report", "nope", "-limit", "10"}, &buf); err == nil {
		t.Error("unknown report should fail")
	}
	if err := run([]string{"-resume", "-limit", "10"}, &buf); err == nil {
		t.Error("-resume without -checkpoint should fail")
	}
	if err := run([]string{"-server", "zzz"}, &buf); err == nil {
		t.Error("unknown server should fail")
	}
	if err := run([]string{"-client", "zzz"}, &buf); err == nil {
		t.Error("unknown client should fail")
	}
	if err := run([]string{"-bogusflag"}, &buf); err == nil {
		t.Error("bad flag should fail")
	}
	// Out-of-range counts and shard specs fail before any campaign
	// work, naming the flag; none may fall back to a default.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-limit", "-5"}, "-limit"},
		{[]string{"-workers", "-3", "-limit", "10"}, "-workers"},
		{[]string{"-shard", "0/0", "-limit", "10"}, "-shard"},
		{[]string{"-shard", "0/-2", "-limit", "10"}, "-shard"},
		// The ablations are test hooks, not flags.
		{[]string{"-reparse", "-limit", "10"}, "reparse"},
		{[]string{"-dedup=false", "-limit", "10"}, "dedup"},
	} {
		buf.Reset()
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err = %v, want an error naming %s", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("run(%v) printed output before failing:\n%s", tc.args, buf.String())
		}
	}
}

// TestRunUnknownReportFailsFast: a typo in -report must be rejected
// before the campaign runs, listing the valid modes — not fall back to
// a default report or error only after minutes of work.
func TestRunUnknownReportFailsFast(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-report", "talbe3"}, &buf) // note: no -limit — validation must precede the campaign
	if err == nil {
		t.Fatal("unknown report should fail")
	}
	for _, want := range []string{"talbe3", "valid modes", "table3", "maturity", "markdown"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("unknown report still printed output:\n%s", buf.String())
	}
}

// TestRunCheckpointResume is the CLI-level resume acceptance check: a
// checkpointed run, a resume replaying it in full, and a plain clean
// run must print byte-identical reports.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-limit", "40", "-workers", "4", "-report", "table3"}
	var clean, checkpointed, resumed bytes.Buffer
	if err := run(args, &clean); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if err := run(append([]string{"-checkpoint", dir}, args...), &checkpointed); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if checkpointed.String() != clean.String() {
		t.Error("checkpointed run output differs from clean run")
	}
	// Resume at a different worker count: full replay, identical report.
	resumeArgs := []string{"-checkpoint", dir, "-resume", "-limit", "40", "-workers", "1", "-report", "table3"}
	if err := run(resumeArgs, &resumed); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.String() != clean.String() {
		t.Errorf("resumed run output differs from clean run:\n--- clean ---\n%s--- resumed ---\n%s",
			clean.String(), resumed.String())
	}
	// Reusing the journal directory without -resume must refuse.
	var buf bytes.Buffer
	if err := run(append([]string{"-checkpoint", dir}, args...), &buf); err == nil {
		t.Error("fresh -checkpoint into a used directory should fail")
	}
	// Resuming under a different configuration must refuse.
	if err := run([]string{"-checkpoint", dir, "-resume", "-limit", "60", "-report", "table3"}, &buf); err == nil {
		t.Error("resume with a different -limit should fail")
	}
}

func TestRunMetricsReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "40", "-report", "metrics"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Observability metrics", "campaign.publish.total", "campaign.wsi.checks",
		"campaign.generate.seconds", "campaign.compile.seconds", "histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics report missing %q:\n%s", want, out)
		}
	}
}

func TestRunMetricsJSONExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	if err := run([]string{"-limit", "40", "-report", "findings", "-metrics-json", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Errorf("metrics JSON is empty: %d counters, %d histograms",
			len(snap.Counters), len(snap.Histograms))
	}
	var buf2 bytes.Buffer
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")
	if err := run([]string{"-limit", "10", "-report", "findings", "-metrics-json", bad}, &buf2); err == nil {
		t.Error("unwritable metrics path should fail")
	}
}

func TestRunDebugFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-limit", "10", "-report", "findings", "-debug", "127.0.0.1:0"}, &buf); err != nil {
		t.Fatalf("run with -debug: %v", err)
	}
	if err := run([]string{"-limit", "10", "-report", "findings", "-debug", "not-an-address"}, &buf); err == nil {
		t.Error("unbindable debug address should fail")
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("smoke.counter").Inc()
	reg.Emit(obs.Event{Trace: "t", Stage: "s"})
	srv := httptest.NewServer(debugMux(reg))
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return body
	}

	var snap struct {
		Counters []struct {
			Name string `json:"name"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(get("/debug/metrics"), &snap); err != nil {
		t.Fatalf("/debug/metrics does not parse: %v", err)
	}
	if len(snap.Counters) == 0 || snap.Counters[0].Name != "smoke.counter" {
		t.Errorf("/debug/metrics counters = %+v", snap.Counters)
	}
	var events []struct {
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(get("/debug/events"), &events); err != nil {
		t.Fatalf("/debug/events does not parse: %v", err)
	}
	if len(events) != 1 || events[0].Trace != "t" {
		t.Errorf("/debug/events = %+v", events)
	}
	if body := get("/debug/vars"); !bytes.Contains(body, []byte("cmdline")) {
		t.Errorf("/debug/vars missing expvar content: %s", body)
	}
	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("/debug/pprof/ missing index content")
	}
}

// TestRunShardMergeCLI is the CLI-level distributed acceptance check:
// N shard workers with private checkpoints plus a merge must print the
// same report as one single-process run.
func TestRunShardMergeCLI(t *testing.T) {
	var single bytes.Buffer
	if err := run([]string{"-limit", "40", "-report", "table3"}, &single); err != nil {
		t.Fatalf("single run: %v", err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		var buf bytes.Buffer
		args := []string{
			"-limit", "40", "-report", "findings",
			"-shard", fmt.Sprintf("%d/%d", i, len(dirs)), "-checkpoint", dir,
		}
		if err := run(args, &buf); err != nil {
			t.Fatalf("shard %d run: %v", i, err)
		}
	}
	var merged bytes.Buffer
	if err := run([]string{"-limit", "40", "-report", "table3", "-merge", strings.Join(dirs, ",")}, &merged); err != nil {
		t.Fatalf("merge run: %v", err)
	}
	if merged.String() != single.String() {
		t.Errorf("merged report differs from single-process run:\n--- single ---\n%s--- merged ---\n%s",
			single.String(), merged.String())
	}
}

// TestRunShardMergeWireModesCLI: -merge serves the wire modes from the
// shards' journals — -report comm and -faults -report robust print what
// a single process prints, and the merge runs no exchange — and a mode
// the shards never ran is refused with the mode and the directories
// named.
func TestRunShardMergeWireModesCLI(t *testing.T) {
	for _, mode := range [][]string{{"-report", "comm"}, {"-faults", "-report", "robust"}} {
		t.Run(strings.Join(mode, " "), func(t *testing.T) {
			args := append([]string{"-limit", "20"}, mode...)
			var single bytes.Buffer
			if err := run(args, &single); err != nil {
				t.Fatalf("single run: %v", err)
			}
			dirs := []string{t.TempDir(), t.TempDir()}
			for i, dir := range dirs {
				var buf bytes.Buffer
				shard := append(append([]string(nil), args...), "-shard", fmt.Sprintf("%d/%d", i, len(dirs)), "-checkpoint", dir)
				if err := run(shard, &buf); err != nil {
					t.Fatalf("shard %d run: %v", i, err)
				}
			}
			metrics := filepath.Join(t.TempDir(), "m.json")
			var merged bytes.Buffer
			if err := run(append(append([]string(nil), args...), "-merge", strings.Join(dirs, ","), "-metrics-json", metrics), &merged); err != nil {
				t.Fatalf("merge run: %v", err)
			}
			if merged.String() != single.String() {
				t.Errorf("merged report differs from single-process run:\n--- single ---\n%s--- merged ---\n%s",
					single.String(), merged.String())
			}
			data, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			var snap struct {
				Counters []struct {
					Name  string `json:"name"`
					Value int64  `json:"value"`
				} `json:"counters"`
				Histograms []struct {
					Name  string `json:"name"`
					Count int64  `json:"count"`
				} `json:"histograms"`
			}
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			for _, c := range snap.Counters {
				if c.Name == "journal.cells.executed" && c.Value != 0 {
					t.Errorf("the merge executed %d cells", c.Value)
				}
			}
			for _, h := range snap.Histograms {
				if h.Name == "transport.invoke.seconds" && h.Count != 0 {
					t.Errorf("the merge made %d SOAP invocations", h.Count)
				}
			}
		})
	}

	t.Run("missing journal", func(t *testing.T) {
		dirs := []string{t.TempDir(), t.TempDir()}
		for i, dir := range dirs {
			var buf bytes.Buffer
			if err := run([]string{"-limit", "20", "-report", "table3",
				"-shard", fmt.Sprintf("%d/%d", i, len(dirs)), "-checkpoint", dir}, &buf); err != nil {
				t.Fatalf("shard %d run: %v", i, err)
			}
		}
		var buf bytes.Buffer
		err := run([]string{"-limit", "20", "-report", "comm", "-merge", strings.Join(dirs, ",")}, &buf)
		if err == nil || !strings.Contains(err.Error(), "comm") || !strings.Contains(err.Error(), dirs[0]) {
			t.Errorf("merging comm from table3-only shards: err = %v, want a refusal naming comm and %s", err, dirs[0])
		}
		if buf.Len() != 0 {
			t.Errorf("the refused merge printed a report:\n%s", buf.String())
		}
	})
}

func TestRunShardMergeServeFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-shard", "zero/4", "-limit", "10"},     // unparsable index
		{"-shard", "2", "-limit", "10"},          // missing /COUNT
		{"-shard", "4/4", "-limit", "10"},        // index out of range
		{"-merge", "x", "-shard", "0/2"},         // merge excludes shard
		{"-merge", "x", "-checkpoint", "y"},      // merge excludes checkpoint
		{"-serve", "127.0.0.1:0", "-merge", "x"}, // serve excludes merge
		{"-serve", "127.0.0.1:0", "-shard", "0/2"},
		{"-serve", "127.0.0.1:0", "-checkpoint", "y"},
		{"-serve", "not-an-address"}, // unbindable daemon address
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestRunMetricsJSONPartialOnFailure: a failed run must still export
// the metrics snapshot — annotated partial — because the partial
// snapshot is most useful exactly when the run died.
func TestRunMetricsJSONPartialOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	missing := filepath.Join(t.TempDir(), "no-such-journal")
	var buf bytes.Buffer
	err := run([]string{"-limit", "10", "-report", "findings", "-merge", missing, "-metrics-json", path}, &buf)
	if err == nil {
		t.Fatal("merging a missing journal should fail")
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("metrics snapshot not written on failure: %v", rerr)
	}
	var snap struct {
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if !snap.Partial {
		t.Errorf("failed run's snapshot not marked partial: %s", data)
	}
	// A successful run's snapshot stays unmarked.
	if err := run([]string{"-limit", "10", "-report", "findings", "-metrics-json", path}, &buf); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	data, _ = os.ReadFile(path)
	if strings.Contains(string(data), `"partial"`) {
		t.Errorf("clean run's snapshot marked partial: %s", data)
	}
}

// TestRunServeEndToEnd drives the -serve daemon through the CLI: boot,
// stream one campaign over TCP, hit the mounted debug endpoint, stop.
func TestRunServeEndToEnd(t *testing.T) {
	urls := make(chan string, 1)
	serveListening = func(u string) { urls <- u }
	serveStop = make(chan struct{})
	defer func() { serveListening, serveStop = nil, nil }()

	done := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		done <- run([]string{"-serve", "127.0.0.1:0"}, &buf)
	}()
	var base string
	select {
	case base = <-urls:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	}

	resp, err := http.Post(base+"/campaigns", "application/json",
		strings.NewReader(`{"limit":20,"server":"Metro"}`))
	if err != nil {
		t.Fatalf("POST /campaigns: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /campaigns: status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last struct {
		Type    string `json:"type"`
		Summary struct {
			TotalServices int `json:"totalServices"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("final stream line does not parse: %v\n%s", err, body)
	}
	if last.Type != "result" || last.Summary.TotalServices != 20 {
		t.Errorf("final line = %+v, want result with 20 services", last)
	}

	// The debug mux is mounted on the daemon's registry.
	resp, err = http.Get(base + "/debug/metrics")
	if err != nil {
		t.Fatalf("GET /debug/metrics: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "daemon.campaigns.started") {
		t.Errorf("GET /debug/metrics: status %d, body %s", resp.StatusCode, body)
	}

	close(serveStop)
	if err := <-done; err != nil {
		t.Errorf("daemon shutdown: %v", err)
	}
}

// TestRunAxisFlagAddsSection: a wire axis's flag runs the axis and
// adds its section to whatever -report prints, after the static
// sections.
func TestRunAxisFlagAddsSection(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-faults", "-report", "fig4"}, []string{"== Fig. 4 — per-server step overview ==", "== Robustness extension", "wrong-success cells: 0"}},
		{[]string{"-versions", "-report", "findings"}, []string{"== Main findings", "== Version matrix extension", "hybrid-fault cells accepted: 0"}},
	} {
		var buf bytes.Buffer
		if err := run(append([]string{"-limit", "5"}, tc.args...), &buf); err != nil {
			t.Fatalf("run %v: %v", tc.args, err)
		}
		out, at := buf.String(), 0
		for _, want := range tc.want {
			i := strings.Index(out[at:], want)
			if i < 0 {
				t.Errorf("run %v: output lacks %q after offset %d:\n%s", tc.args, want, at, out)
				break
			}
			at += i
		}
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRunRenderErrorWritesPartialMetrics: a section that fails to
// render fails the run, and the metrics snapshot is still written,
// marked partial.
func TestRunRenderErrorWritesPartialMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	err := run([]string{"-limit", "10", "-report", "table3", "-metrics-json", path}, &failingWriter{n: 64})
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("run error = %v, want the writer's error", err)
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("metrics snapshot not written after a render error: %v", rerr)
	}
	var snap struct {
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(data, &snap); err != nil || !snap.Partial {
		t.Errorf("snapshot after a render error: partial = %v (parse error %v)", snap.Partial, err)
	}
}
