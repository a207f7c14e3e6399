package report

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"wsinterop/internal/campaign"
)

var (
	resOnce sync.Once
	res     *campaign.Result
	resErr  error
)

// sharedResult runs one scaled campaign for all report tests.
func sharedResult(t *testing.T) *campaign.Result {
	t.Helper()
	resOnce.Do(func() {
		res, resErr = campaign.New(campaign.WithLimit(120)).Run(context.Background())
	})
	if resErr != nil {
		t.Fatalf("campaign: %v", resErr)
	}
	return res
}

func TestFig4Rendering(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(&buf, sharedResult(t)); err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"services created", "WSDL published", "generation errors",
		"compilation warnings", "Metro", "JBossWS CXF", "WCF .NET", "total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 10 {
		t.Errorf("Fig4 should render 10 lines (header + 9 rows), got %d:\n%s", lines, out)
	}
}

func TestTableIIIRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := TableIII(&buf, sharedResult(t)); err != nil {
		t.Fatalf("TableIII: %v", err)
	}
	out := buf.String()
	for _, client := range sharedResult(t).ClientOrder {
		if !strings.Contains(out, client) {
			t.Errorf("TableIII missing client row %q", client)
		}
	}
	// Header + 11 client rows.
	if lines := strings.Count(out, "\n"); lines != 12 {
		t.Errorf("TableIII should render 12 lines, got %d:\n%s", lines, out)
	}
}

func TestFindingsRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := Findings(&buf, sharedResult(t)); err != nil {
		t.Fatalf("Findings: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"tests executed", "interoperability error situations",
		"same-framework error situations", "WS-I-flagged services failing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Findings missing %q:\n%s", want, out)
		}
	}
}

func TestDeployRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := Deploy(&buf, sharedResult(t)); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if !strings.Contains(buf.String(), "excluded") {
		t.Errorf("Deploy output missing excluded column:\n%s", buf.String())
	}
}

func TestComparisons(t *testing.T) {
	cmp := Comparisons(sharedResult(t))
	if len(cmp) < 20 {
		t.Fatalf("expected a full comparison table, got %d rows", len(cmp))
	}
	seen := make(map[string]bool, len(cmp))
	for _, c := range cmp {
		if seen[c.Metric] {
			t.Errorf("duplicate comparison metric %q", c.Metric)
		}
		seen[c.Metric] = true
		if c.Delta() != c.Measured-c.Paper {
			t.Errorf("delta arithmetic broken for %q", c.Metric)
		}
	}
	var buf bytes.Buffer
	if err := WriteComparisons(&buf, cmp); err != nil {
		t.Fatalf("WriteComparisons: %v", err)
	}
	if !strings.Contains(buf.String(), "paper") || !strings.Contains(buf.String(), "delta") {
		t.Errorf("comparison table header missing:\n%s", buf.String())
	}
}
