package campaign

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"wsinterop/internal/faultinject"
	"wsinterop/internal/obs"
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
var robustAxis = &wireAxis{
	name:    "robust",
	columns: names(robustFaults, func(f faultinject.Fault) string { return f.Name }),
	codes:   []string{"skipped", "detected-fault", "masked-fault", "wrong-success", "retry-recovered"},
	counters: []string{"campaign.robust.skipped", "campaign.robust.detected", "campaign.robust.masked",
		"campaign.robust.wrong_success", "campaign.robust.recovered"},
	handler: func(r *Runner, _ string, host *transport.Host) http.Handler {
		injector := faultinject.New(host)
		// Keep the matrix wall-clock-free: the delay fault is classified
		// by what the client does with a slow-but-valid response, not by
		// actually stalling thousands of cells.
		injector.Sleep = func(time.Duration) {}
		injector.Obs = r.obs
		return injector
	},
	exchange: robustRow,
}

// RobustCounts aggregates cells of one matrix slice.
type RobustCounts struct {
	Cells        int
	Skipped      int
	Detected     int
	Masked       int
	WrongSuccess int
	Recovered    int
}

// robustCounts converts an outcome histogram into counts.
func robustCounts(n []int) *RobustCounts {
	return &RobustCounts{
		Cells: sum(n), Skipped: n[robustSkipped], Detected: n[robustDetected],
		Masked: n[robustMasked], WrongSuccess: n[robustWrongSuccess], Recovered: n[robustRecovered],
	}
}

// add accumulates another partial count.
func (c *RobustCounts) add(o *RobustCounts) {
	c.Cells += o.Cells
	c.Skipped += o.Skipped
	c.Detected += o.Detected
	c.Masked += o.Masked
	c.WrongSuccess += o.WrongSuccess
	c.Recovered += o.Recovered
}

// RobustResult is the (server × client × fault) robustness matrix,
// aggregated along its two presentation axes.
type RobustResult struct {
	// Faults lists the catalog rows in their fixed order.
	Faults []string
	// Servers maps server name → fault name → counts.
	Servers     map[string]map[string]*RobustCounts
	ServerOrder []string
	// Clients maps client name → counts across all servers and faults.
	Clients     map[string]*RobustCounts
	ClientOrder []string
	// PathCollisions counts deployments that needed a suffixed path.
	PathCollisions int
}

// FaultTotals sums each fault row across servers.
func (r *RobustResult) FaultTotals() map[string]*RobustCounts {
	totals := make(map[string]*RobustCounts, len(r.Faults))
	for _, f := range r.Faults {
		t := &RobustCounts{}
		for _, server := range r.ServerOrder {
			t.add(r.Servers[server][f])
		}
		totals[f] = t
	}
	return totals
}

// Totals sums the whole matrix.
func (r *RobustResult) Totals() RobustCounts {
	var t RobustCounts
	for _, server := range r.ServerOrder {
		for _, f := range r.Faults {
			t.add(r.Servers[server][f])
		}
	}
	return t
}

// robustRetryPolicy builds the per-cell client policy: bounded
// attempts, exponential backoff with a deterministic jitter, a no-op
// sleeper (the matrix must be wall-clock-free), and an Annotate hook
// that stamps the fault directive plus attempt number onto every
// request and records how many attempts ran.
func robustRetryPolicy(directive string, attempts *int) *transport.RetryPolicy {
	return &transport.RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Jitter:      func(attempt int, d time.Duration) time.Duration { return d + time.Duration(attempt)*time.Microsecond },
		Sleep:       func(context.Context, time.Duration) error { return nil },
		Annotate: func(attempt int, h http.Header) {
			*attempts = attempt
			h.Set(faultinject.HeaderFault, directive)
			h.Set(faultinject.HeaderAttempt, strconv.Itoa(attempt))
		},
	}
}

// robustExchange is one completed faulted invocation, bundled for
// classification.
type robustExchange struct {
	resp       *soap.Message
	wantLocal  string
	sent       map[string]string
	probeField string
}

// validShape applies the client-side deserialization check a generated
// proxy performs against the WSDL-declared response message: correct
// wrapper name and exactly the expected echo fields.
func (x *robustExchange) validShape() bool {
	if x.resp.Local != x.wantLocal || len(x.resp.Fields) != len(x.sent) {
		return false
	}
	for name := range x.sent {
		if _, ok := x.resp.Fields[name]; !ok {
			return false
		}
	}
	return true
}

// classifyRobust maps one exchange outcome into the taxonomy. Order
// matters: a surfaced error is always detection; an invalid response
// shape counts as detection too (the proxy's deserialization
// validation rejects it); a success that needed retries is recovery;
// a success against a fault the wire unambiguously signaled is the
// wrong-success bug class; a corrupted-but-accepted echo likewise;
// everything else the client absorbed silently.
func classifyRobust(f faultinject.Fault, attempts int, x *robustExchange, err error) outcome {
	if err != nil {
		return robustDetected
	}
	if !x.validShape() {
		return robustDetected
	}
	if attempts > 1 {
		return robustRecovered
	}
	if f.MustError {
		return robustWrongSuccess
	}
	if echoed, _ := x.resp.Field(x.probeField); echoed != x.sent[x.probeField] {
		return robustWrongSuccess
	}
	return robustMasked
}

// RunRobustness executes the Robustness mode across every configured
// server framework. The outcome matrix is deterministic: the wire-axis
// executor lands cells in pre-indexed slots and folds them in fixed
// order, so worker count and scheduling never change the result.
func (r *Runner) RunRobustness(ctx context.Context) (*RobustResult, error) {
	t, err := r.runAxis(ctx, robustAxis)
	if err != nil {
		return nil, err
	}
	return robustResult(t), nil
}

// robustResult converts the executor's tally into the matrix.
func robustResult(t *wireTally) *RobustResult {
	servers, clients := matrix(t, robustCounts)
	return &RobustResult{
		Faults:  append([]string(nil), robustAxis.columns...),
		Servers: servers, ServerOrder: t.servers,
		Clients: clients, ClientOrder: t.clientOrder,
		PathCollisions: sum(t.collisions),
	}
}

// robustRow runs one faulted invocation per catalog entry for the
// (service × client) pair, writing outcomes into the row's slots.
func robustRow(x *wireCall, row []outcome, _ []int) {
	if x.op == "" {
		for i := range row {
			row[i] = robustSkipped
		}
		return
	}
	for col, f := range robustFaults {
		// The cell's trace carries (server, class, client, fault), so the
		// injector's fired-fault log joins back to exactly one matrix cell.
		trace := obs.TraceID(x.svc.Server, x.svc.Class, x.client.Name(), f.Name)
		attempts := 0
		resp, err := x.invoke(x.bridge.WithRetry(robustRetryPolicy(f.Directive, &attempts)), trace)
		var ex *robustExchange
		if err == nil {
			ex = &robustExchange{resp: resp, wantLocal: x.op + "Response", sent: x.req.Fields, probeField: x.probe}
		}
		row[col] = classifyRobust(f, attempts, ex, err)
	}
}
