package campaign

import "testing"

// The per-cell wire oracle and the production routes it checks, for
// the external test package, which renders their reports: importing
// internal/report, which imports this package, keeps that test out of
// package campaign.

// WireRuns runs ax at limit and workers fresh, resumed and merged
// (wireRuns) and returns each route's label and result.
func WireRuns(t *testing.T, ax *Axis, limit, workers int) (labels []string, results []WireResult) {
	for _, run := range wireRuns(t, ax, limit, workers) {
		labels, results = append(labels, run.label), append(results, run.res)
	}
	return labels, results
}

// WireOracle returns the per-cell oracle's result of ax at limit.
func WireOracle(t *testing.T, ax *Axis, limit int) WireResult {
	return wireOracle(t, config{Limit: limit}, ax).res
}
