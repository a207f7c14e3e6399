package report

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"wsinterop/internal/campaign"
)

func failureResult(t *testing.T) *campaign.Result {
	t.Helper()
	res, err := campaign.New(campaign.WithLimit(120), campaign.WithKeepFailures()).Run(context.Background())
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return res
}

func TestGroupFailures(t *testing.T) {
	res := failureResult(t)
	groups := GroupFailures(res)
	if len(groups) == 0 {
		t.Fatal("no failure groups")
	}
	// The group list must account for every retained failure.
	entries := 0
	for _, g := range groups {
		entries += len(g.GenClients) + len(g.CompileClients)
		if g.Class == "" || g.Server == "" {
			t.Errorf("incomplete group %+v", g)
		}
	}
	if entries != res.InteropErrors {
		t.Errorf("grouped entries = %d, want %d (interop errors)", entries, res.InteropErrors)
	}
	// Sorted by server, then impact.
	for i := 1; i < len(groups); i++ {
		a, b := groups[i-1], groups[i]
		if a.Server == b.Server {
			ia := len(a.GenClients) + len(a.CompileClients)
			ib := len(b.GenClients) + len(b.CompileClients)
			if ia < ib {
				t.Errorf("groups not ordered by impact: %q(%d) before %q(%d)", a.Class, ia, b.Class, ib)
			}
		}
	}
}

func TestFailuresRendering(t *testing.T) {
	res := failureResult(t)
	var buf bytes.Buffer
	if err := Failures(&buf, res, 5); err != nil {
		t.Fatalf("Failures: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "W3CEndpointReference") {
		t.Errorf("footnote index should lead with the narrative classes:\n%s", out)
	}
	if !strings.Contains(out, "elided") {
		t.Errorf("capped listing should mention elided classes:\n%s", out)
	}
}

func TestFailuresWithoutRetention(t *testing.T) {
	res := sharedResult(t) // KeepFailures unset
	var buf bytes.Buffer
	if err := Failures(&buf, res, 0); err != nil {
		t.Fatalf("Failures: %v", err)
	}
	if !strings.Contains(buf.String(), "KeepFailures") {
		t.Errorf("should point to the retention flag:\n%s", buf.String())
	}
}

func TestFig4ChartRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4Chart(&buf, sharedResult(t)); err != nil {
		t.Fatalf("Fig4Chart: %v", err)
	}
	out := buf.String()
	for _, server := range sharedResult(t).ServerOrder {
		if !strings.Contains(out, server) {
			t.Errorf("chart missing server %q", server)
		}
	}
	if !strings.Contains(out, "#") {
		t.Error("chart has no bars")
	}
	// Bars stay within the width budget.
	for _, line := range strings.Split(out, "\n") {
		if n := strings.Count(line, "#"); n > 48 {
			t.Errorf("bar exceeds width: %q", line)
		}
	}
}

func TestJSONExport(t *testing.T) {
	res := failureResult(t)
	comm, err := campaign.New(campaign.WithLimit(60)).RunCommunication(context.Background())
	if err != nil {
		t.Fatalf("communication: %v", err)
	}
	var buf bytes.Buffer
	robust, err := campaign.New(campaign.WithLimit(60)).RunRobustness(context.Background())
	if err != nil {
		t.Fatalf("robustness: %v", err)
	}
	versions, err := campaign.New(campaign.WithLimit(60)).RunVersions(context.Background())
	if err != nil {
		t.Fatalf("versions: %v", err)
	}
	if err := JSON(&buf, res, comm, robust.Matrix, versions.Matrix); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	for _, key := range []string{"totalTests", "servers", "matrix", "failures", "paperComparison", "communication", "robustness", "versions"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing key %q", key)
		}
	}
	if matrix, ok := decoded["matrix"].([]any); !ok || len(matrix) != 33 {
		t.Errorf("matrix should have 11×3 cells, got %v", decoded["matrix"])
	}
}

func TestJSONWithoutCommunication(t *testing.T) {
	var buf bytes.Buffer
	if err := JSON(&buf, sharedResult(t)); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if strings.Contains(buf.String(), `"communication"`) {
		t.Error("communication section should be omitted when absent")
	}
	if strings.Contains(buf.String(), `"robustness"`) {
		t.Error("robustness section should be omitted when absent")
	}
	if strings.Contains(buf.String(), `"versions"`) {
		t.Error("versions section should be omitted when absent")
	}
}

func TestCommunicationRendering(t *testing.T) {
	comm, err := campaign.New(campaign.WithLimit(60)).RunCommunication(context.Background())
	if err != nil {
		t.Fatalf("communication: %v", err)
	}
	var buf bytes.Buffer
	if err := Communication(&buf, comm); err != nil {
		t.Fatalf("Communication: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"blocked", "no-operations", "succeeded", "total", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("communication report missing %q:\n%s", want, out)
		}
	}
}

func TestMarkdownRendering(t *testing.T) {
	comm, err := campaign.New(campaign.WithLimit(60)).RunCommunication(context.Background())
	if err != nil {
		t.Fatalf("communication: %v", err)
	}
	var buf bytes.Buffer
	if err := Markdown(&buf, sharedResult(t), comm); err != nil {
		t.Fatalf("Markdown: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Campaign result", "### Per-server overview (Fig. 4)",
		"### Client × server matrix (Table III)", "### Paper vs measured",
		"### Communication & Execution extension", "| --- |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Every client appears as a table row.
	for _, client := range sharedResult(t).ClientOrder {
		if !strings.Contains(out, "| "+client+" |") {
			t.Errorf("markdown missing row for %q", client)
		}
	}
}

func TestMarkdownWithoutCommunication(t *testing.T) {
	var buf bytes.Buffer
	if err := Markdown(&buf, sharedResult(t)); err != nil {
		t.Fatalf("Markdown: %v", err)
	}
	if strings.Contains(buf.String(), "Communication & Execution") {
		t.Error("communication section should be omitted when absent")
	}
	if strings.Contains(buf.String(), "Robustness extension") {
		t.Error("robustness section should be omitted when absent")
	}
	if strings.Contains(buf.String(), "Version matrix extension") {
		t.Error("versions section should be omitted when absent")
	}
}

func TestRobustnessRendering(t *testing.T) {
	robust, err := campaign.New(campaign.WithLimit(60)).RunRobustness(context.Background())
	if err != nil {
		t.Fatalf("robustness: %v", err)
	}
	var buf bytes.Buffer
	if err := Robustness(&buf, robust); err != nil {
		t.Fatalf("Robustness: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"fault", "detected", "masked", "wrong-success", "retry-recovered",
		"total", "wrong-success cells:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("robustness report missing %q:\n%s", want, out)
		}
	}
	for _, fault := range robust.Columns {
		if !strings.Contains(out, fault) {
			t.Errorf("robustness report missing fault row %q", fault)
		}
	}
}

func TestVersionsRendering(t *testing.T) {
	versions, err := campaign.New(campaign.WithLimit(60)).RunVersions(context.Background())
	if err != nil {
		t.Fatalf("versions: %v", err)
	}
	var buf bytes.Buffer
	if err := Versions(&buf, versions); err != nil {
		t.Fatalf("Versions: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"scenario", "typed-reject", "silent-mishandle", "total",
		"hybrid-fault cells accepted: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("versions report missing %q:\n%s", want, out)
		}
	}
	for _, sc := range versions.Columns {
		if !strings.Contains(out, sc) {
			t.Errorf("versions report missing scenario row %q", sc)
		}
	}
	for _, client := range versions.ClientOrder {
		if !strings.Contains(out, client) {
			t.Errorf("versions report missing client row %q", client)
		}
	}

	// The markdown renderer carries the same matrix.
	var md bytes.Buffer
	if err := Markdown(&md, sharedResult(t), versions.Matrix); err != nil {
		t.Fatalf("Markdown: %v", err)
	}
	for _, want := range []string{
		"### Version matrix extension (SOAP 1.1 / 1.2 / hybrid)",
		"| total | hybrid-fault |", "typed rejects:",
	} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown versions section missing %q", want)
		}
	}
}

func TestExplainRendering(t *testing.T) {
	r := campaign.New()
	e, err := r.Explain("Metro", "javax.xml.ws.wsaddressing.W3CEndpointReference")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	var buf bytes.Buffer
	if err := Explain(&buf, e); err != nil {
		t.Fatalf("Explain: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"W3CEndpointReference on Metro", "WSDL published", "WS-I: R2001",
		"FAILED", "no artifacts; verification skipped", "wsimport",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainRenderingRefused(t *testing.T) {
	r := campaign.New()
	e, err := r.Explain("Metro", "java.util.concurrent.Future")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	var buf bytes.Buffer
	if err := Explain(&buf, e); err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(buf.String(), "not deployed") {
		t.Errorf("refusal not rendered:\n%s", buf.String())
	}
}

func TestMaturityRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := Maturity(&buf, sharedResult(t)); err != nil {
		t.Fatalf("Maturity: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"verdict", "mature", "immature", "Apache Axis1"} {
		if !strings.Contains(out, want) {
			t.Errorf("maturity report missing %q:\n%s", want, out)
		}
	}
}
