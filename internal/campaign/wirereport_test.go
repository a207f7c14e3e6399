package campaign_test

import (
	"bytes"
	"context"
	"testing"

	"wsinterop/internal/campaign"
	"wsinterop/internal/report"
)

// TestWireReportsMatchOracle renders every wire axis's text report and
// the Markdown and JSON dumps of all three from each production route
// (campaign.WireRuns: fresh, resumed and 2-shard merged, at workers 1
// and 8) and from the per-cell oracle, and requires the same bytes.
func TestWireReportsMatchOracle(t *testing.T) {
	const limit = 20
	study, err := campaign.New(campaign.WithLimit(limit)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	render := func(wire []campaign.WireResult) []byte {
		t.Helper()
		var b bytes.Buffer
		for _, res := range wire {
			if err := report.Wire(&b, res); err != nil {
				t.Fatal(err)
			}
		}
		if err := report.Markdown(&b, study, wire...); err != nil {
			t.Fatal(err)
		}
		if err := report.JSON(&b, study, wire...); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	var oracle []campaign.WireResult
	for _, ax := range campaign.WireAxes() {
		oracle = append(oracle, campaign.WireOracle(t, ax, limit))
	}
	want := render(oracle)
	for _, workers := range []int{1, 8} {
		var labels []string
		routes := make(map[string][]campaign.WireResult)
		for _, ax := range campaign.WireAxes() {
			l, results := campaign.WireRuns(t, ax, limit, workers)
			labels = l
			for i, label := range l {
				routes[label] = append(routes[label], results[i])
			}
		}
		for _, label := range labels {
			if got := render(routes[label]); !bytes.Equal(got, want) {
				t.Errorf("%s: the wire reports differ from the per-cell oracle's:\n--- got ---\n%s--- oracle ---\n%s",
					label, got, want)
			}
		}
	}
}
