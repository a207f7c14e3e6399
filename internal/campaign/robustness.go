package campaign

import (
	"context"
	"fmt"
	"time"

	"wsinterop/internal/faultinject"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// This file implements the Robustness mode of the communication
// extension (`interop -faults`): every (published service × client)
// exchange is repeated once per catalog fault with a wire-level fault
// injector between client and host, and the outcome is classified
// into the robustness taxonomy below. The mode is the adverse-
// conditions complement of RunCommunication — where that run proves
// clean combinations complete the round trip, this one proves the
// client surfaces (or recovers from) every failure the wire can
// signal, and that no wire-signaled failure is reported as success.

// Robustness outcomes, indexing robustAxis.codes.
const (
	// robustSkipped: the static steps blocked the combination or the
	// artifacts expose nothing to invoke; no exchange happened.
	robustSkipped outcome = iota
	// robustDetected: the client surfaced the injected fault — a typed
	// transport/decode error, or response validation rejecting a
	// payload that no longer matches the declared response message.
	robustDetected
	// robustMasked: the round trip succeeded with intact echo
	// semantics despite the fault; the client absorbed a conformance
	// violation (e.g. a wrong Content-Type) without noticing.
	robustMasked
	// robustWrongSuccess: the client reported success although the
	// wire signaled failure or the payload was corrupted — the
	// status-blind bug class this mode exists to catch.
	robustWrongSuccess
	// robustRecovered: the invocation succeeded after at least one
	// retry; the retry policy turned a transient fault into success.
	robustRecovered
)

// robustFaults is the fault catalog, the robustness axis's columns.
var robustFaults = faultinject.Catalog()

// robustAxis is the Robustness mode over the wire-axis executor: one
// faulted exchange per catalog fault for every (service × client) row,
// through a wire-level fault injector.
var robustAxis = &Axis{
	name:            "robust",
	Flag:            "faults",
	Usage:           "run the fault-injection robustness matrix (server × client × fault) and print its report",
	Title:           "Robustness extension (fault injection, steps 4–5)",
	MarkdownTitle:   "Robustness extension (fault injection)",
	JSONKey:         "robustness",
	Column:          "fault",
	Labels:          []string{"skipped", "detected", "masked", "wrong-success", "retry-recovered"},
	JSONKeys:        []string{"skipped", "detected", "masked", "wrongSuccess", "retryRecovered"},
	Verdict:         robustVerdict("wrong-success cells: %d (0 means the client surfaces every wire-signaled failure); %d recovered by retry"),
	MarkdownVerdict: robustVerdict("wrong-success cells: %d · retry-recovered: %d"),
	columns:         names(robustFaults, func(f faultinject.Fault) string { return f.Name }),
	codes:           []string{"skipped", "detected-fault", "masked-fault", "wrong-success", "retry-recovered"},
	counters: []string{"campaign.robust.skipped", "campaign.robust.detected", "campaign.robust.masked",
		"campaign.robust.wrong_success", "campaign.robust.recovered"},
	exchange: robustRow,
}

// robustVerdict renders the matrix's wrong-success and retry-recovered
// totals into format.
func robustVerdict(format string) func(m *Matrix) string {
	return func(m *Matrix) string {
		n := m.Totals()
		return fmt.Sprintf(format, n[robustWrongSuccess], n[robustRecovered])
	}
}

// RobustCounts names a robustness histogram's outcomes.
type RobustCounts struct {
	Cells        int
	Skipped      int
	Detected     int
	Masked       int
	WrongSuccess int
	Recovered    int
}

// RobustResult is the (server × client × fault) robustness matrix.
type RobustResult struct{ *Matrix }

// Totals sums the whole matrix.
func (r *RobustResult) Totals() RobustCounts {
	n := r.Matrix.Totals()
	return RobustCounts{
		Cells: sum(n), Skipped: n[robustSkipped], Detected: n[robustDetected],
		Masked: n[robustMasked], WrongSuccess: n[robustWrongSuccess], Recovered: n[robustRecovered],
	}
}

// robustRetry is every robust exchange's client policy: a second
// attempt after a retryable error, with no pause between them, so the
// matrix stays wall-clock-free.
var robustRetry = &transport.RetryPolicy{MaxAttempts: 2}

// classifyRobust maps one exchange outcome into the taxonomy. Order
// matters: a surfaced error is always detection; a misshapen response
// counts as detection too (the proxy's deserialization validation
// rejects it); a success that needed retries is recovery; a success
// against a fault the wire unambiguously signaled is the wrong-success
// bug class; a corrupted-but-accepted echo likewise; everything else
// the client absorbed silently.
func classifyRobust(f faultinject.Fault, attempts int, d *deployment, resp *soap.Message, err error) outcome {
	if err != nil {
		return robustDetected
	}
	shaped, intact := d.echo(resp)
	switch {
	case !shaped:
		return robustDetected
	case attempts > 1:
		return robustRecovered
	case f.MustError || !intact:
		return robustWrongSuccess
	}
	return robustMasked
}

// RunRobustness executes the Robustness mode across every configured
// server framework. The outcome matrix is deterministic: the wire-axis
// executor lands cells in pre-indexed slots and folds them in fixed
// order, so worker count and scheduling never change the result.
func (r *Runner) RunRobustness(ctx context.Context) (*RobustResult, error) {
	m, err := r.runAxis(ctx, robustAxis)
	if err != nil {
		return nil, err
	}
	return &RobustResult{m}, nil
}

// robustRow runs one faulted invocation per catalog entry for the
// (service × client) pair, writing outcomes into the row's slots. The
// row owns its injector and arms it before every exchange.
func robustRow(x *wireCall, row []outcome, _ []int) {
	if x.op == "" {
		for i := range row {
			row[i] = robustSkipped
		}
		return
	}
	inj := faultinject.New(x.host)
	// Keep the matrix wall-clock-free: the delay fault is classified by
	// what the client does with a slow-but-valid response, not by
	// actually stalling thousands of cells.
	inj.Sleep = func(time.Duration) {}
	inj.Obs = x.r.obs
	bridge := x.bridge.WithRetry(robustRetry).WithHandler(inj)
	for col, f := range robustFaults {
		inj.Arm(f)
		resp, err := x.invoke(bridge)
		row[col] = classifyRobust(f, inj.Attempts(), &x.deployment, resp, err)
	}
}
