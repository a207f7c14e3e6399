package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// wireGoldens are the wire reports pinned byte for byte: each mode's
// text report, the Markdown dump and the wire keys of the JSON dump.
var wireGoldens = []struct {
	name string
	args []string
	// keys, when set, pins only these top-level keys of a JSON dump;
	// the rest (the metrics snapshot) carries timings.
	keys []string
}{
	{"comm", []string{"-limit", "60", "-report", "comm"}, nil},
	{"robust", []string{"-limit", "20", "-faults", "-report", "robust"}, nil},
	{"versions", []string{"-limit", "60", "-report", "versions"}, nil},
	{"markdown", []string{"-limit", "20", "-report", "markdown", "-faults", "-versions"}, nil},
	{"json", []string{"-limit", "20", "-report", "json", "-faults", "-versions"},
		[]string{"communication", "robustness", "versions"}},
}

// pinned reduces a run's output to its pinned bytes: the whole output,
// or the raw bytes of the listed JSON keys, one per line, in order.
func pinned(t *testing.T, out []byte, keys []string) []byte {
	t.Helper()
	if keys == nil {
		return out
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	var b bytes.Buffer
	for _, k := range keys {
		raw, ok := doc[k]
		if !ok {
			t.Fatalf("JSON dump has no %q key", k)
		}
		fmt.Fprintf(&b, "%q: %s\n", k, raw)
	}
	return b.Bytes()
}

// TestWireReportGoldens pins every wire report at workers 1 and 8, and
// requires a 2-shard -merge of the same mode to print the same bytes.
// Run with -update to rewrite the goldens.
func TestWireReportGoldens(t *testing.T) {
	for _, g := range wireGoldens {
		t.Run(g.name, func(t *testing.T) {
			path := filepath.Join("testdata", g.name+".golden")
			runPinned := func(t *testing.T, args ...string) []byte {
				t.Helper()
				var buf bytes.Buffer
				if err := run(append(append([]string(nil), g.args...), args...), &buf); err != nil {
					t.Fatalf("run %v: %v", args, err)
				}
				return pinned(t, buf.Bytes(), g.keys)
			}
			if *update {
				if err := os.WriteFile(path, runPinned(t, "-workers", "1"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, got []byte) {
				t.Helper()
				if !bytes.Equal(got, want) {
					t.Errorf("%s output differs from %s:\n--- got ---\n%s--- want ---\n%s", label, path, got, want)
				}
			}
			for _, workers := range []string{"1", "8"} {
				check("workers "+workers, runPinned(t, "-workers", workers))
			}
			dirs := []string{t.TempDir(), t.TempDir()}
			for i, dir := range dirs {
				runPinned(t, "-shard", fmt.Sprintf("%d/%d", i, len(dirs)), "-checkpoint", dir)
			}
			check("2-shard merge", runPinned(t, "-merge", strings.Join(dirs, ",")))
		})
	}
}

// staticGoldens are two study outputs pinned byte for byte: the plan
// summary (report.Plan) and one class's drill-down (report.Explain).
var staticGoldens = []struct {
	name string
	args []string
}{
	{"plan", []string{"-limit", "20", "-report", "plan"}},
	{"explain", []string{"-limit", "20", "-explain", "javax.xml.ws.wsaddressing.W3CEndpointReference"}},
}

// TestStaticReportGoldens pins -report plan and -explain at workers 1
// and 8. Run with -update to rewrite the goldens.
func TestStaticReportGoldens(t *testing.T) {
	for _, g := range staticGoldens {
		t.Run(g.name, func(t *testing.T) {
			path := filepath.Join("testdata", g.name+".golden")
			runWorkers := func(t *testing.T, workers string) []byte {
				t.Helper()
				var buf bytes.Buffer
				if err := run(append(append([]string(nil), g.args...), "-workers", workers), &buf); err != nil {
					t.Fatalf("run %v: %v", g.args, err)
				}
				return buf.Bytes()
			}
			if *update {
				if err := os.WriteFile(path, runWorkers(t, "1"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []string{"1", "8"} {
				if got := runWorkers(t, workers); !bytes.Equal(got, want) {
					t.Errorf("workers %s output differs from %s:\n--- got ---\n%s--- want ---\n%s", workers, path, got, want)
				}
			}
		})
	}
}
