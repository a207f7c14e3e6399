package main

import (
	"fmt"
	"reflect"

	"wsinterop/internal/campaign"
)

// paperTruth is the study's published ground truth at full scale
// (§IV of the paper). Every study_cold iteration must reproduce it.
var paperTruth = struct {
	created, published, tests, interopErrors, sameFramework int
	flagged, flaggedFailing                                 int
}{
	created: 22024, published: 7239, tests: 79629,
	interopErrors: 1588, sameFramework: 307,
	flagged: 86, flaggedFailing: 82,
}

// checkStudyCold compares a full-scale Result with the paper.
func checkStudyCold(res *campaign.Result) error {
	t := paperTruth
	got := []struct {
		what       string
		have, want int
	}{
		{"services created", res.TotalServices, t.created},
		{"WSDLs published", res.TotalPublished, t.published},
		{"tests", res.TotalTests, t.tests},
		{"interop errors", res.InteropErrors, t.interopErrors},
		{"same-framework errors", res.SameFrameworkErrors, t.sameFramework},
		{"flagged services", res.FlaggedServices, t.flagged},
		{"flagged services failing", res.FlaggedServices - res.FlaggedCleanServices, t.flaggedFailing},
	}
	for _, g := range got {
		if g.have != g.want {
			return fmt.Errorf("%s: got %d, paper reports %d", g.what, g.have, g.want)
		}
	}
	return nil
}

// checkResumed requires a resumed Result to equal the checkpointed run
// it replays, excluding the Dedup and Metrics bookkeeping exactly as the
// program's equivalence suites do, and every published service to have
// been tested by every client.
func checkResumed(ran, resumed *campaign.Result, created, clients int) error {
	if ran.TotalServices != created {
		return fmt.Errorf("services created: got %d, catalogs hold %d", ran.TotalServices, created)
	}
	if want := ran.TotalPublished * clients; ran.TotalTests != want {
		return fmt.Errorf("tests: got %d, want published × clients = %d", ran.TotalTests, want)
	}
	a, b := *ran, *resumed
	a.Dedup, a.Metrics, b.Dedup, b.Metrics = nil, nil, nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("resumed Result differs from the checkpointed run (tests %d vs %d, interop errors %d vs %d)",
			a.TotalTests, b.TotalTests, a.InteropErrors, b.InteropErrors)
	}
	return nil
}

// echoLimit is the stock-corpus cap (classes per catalog) of the
// wire_echo workload. It keeps an iteration near a second, so that the
// ruler readings around it follow the machine's speed (see ruler.go),
// and still holds 1,555 of the 1,588 combinations the static steps
// block at full scale.
const echoLimit = 500

// echoTruth is the communication extension's outcome total over the
// stock corpus at echoLimit, as this benchmark records it: every
// combination whose static steps passed completes the round trip.
var echoTruth = campaign.CommSummary{
	Server: "total", Combinations: 16126, Blocked: 1555, NoOperations: 11,
	Succeeded: 14560, Exchanges: 14560,
}

// checkEcho compares the communication totals with the record.
func checkEcho(res *campaign.CommResult) error {
	if got := res.Totals(); got != echoTruth {
		return fmt.Errorf("communication totals %+v, recorded %+v", got, echoTruth)
	}
	return nil
}

// faultsLimit is the stock-corpus cap (classes per catalog) of the
// wire_faults workload, sized like echoLimit.
const faultsLimit = 15

// robustTruth and versionsTruth are the robustness and version-matrix
// totals at faultsLimit, as this benchmark records them.
var (
	robustTruth = campaign.RobustCounts{
		Cells: 5203, Skipped: 1353, Detected: 2800, Masked: 700, Recovered: 350,
	}
	versionsTruth = campaign.VersionCounts{
		Cells: 1892, Skipped: 492, Accepted: 350, Rejected: 919, Mishandled: 131,
	}
)

// checkFaults compares both matrices with the record and requires the
// two safety verdicts: no wire-signaled failure reported as success,
// and no relayed hybrid fault accepted.
func checkFaults(robust *campaign.RobustResult, versions *campaign.VersionResult) error {
	rt, vt := robust.Totals(), versions.Totals()
	if rt.WrongSuccess != 0 {
		return fmt.Errorf("wrong-success cells: %d", rt.WrongSuccess)
	}
	if hf := versions.ScenarioTotals()["hybrid-fault"]; hf == nil || hf.Accepted != 0 {
		return fmt.Errorf("hybrid-fault cells accepted: %+v", hf)
	}
	if rt != robustTruth {
		return fmt.Errorf("robustness totals %+v, recorded %+v", rt, robustTruth)
	}
	if vt != versionsTruth {
		return fmt.Errorf("version totals %+v, recorded %+v", vt, versionsTruth)
	}
	return nil
}
