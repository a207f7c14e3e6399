package campaign

import (
	"context"
	"time"

	"wsinterop/internal/obs"
	"wsinterop/internal/transport"
)

// This file implements the campaign extension for the Communication
// and Execution steps (4 and 5 of the paper's Fig. 1), which the paper
// scopes out and announces as future work.
//
// For every (published service × client) combination the extension:
//
//  1. reads the step-2/3 verdict (artifact generation and
//     verification) from the shape memo, as the static study left it;
//  2. classifies combinations whose static steps failed as *blocked*;
//  3. deploys the service on an in-process SOAP host and invokes the
//     proxy's operation through the full HTTP handler path;
//  4. verifies the Execution step by checking the echo semantics.
//
// Two outcomes make the extension informative beyond "everything
// clean works":
//
//   - silent generation failures surface here: tools that emitted a
//     method-less stub without reporting an error (Axis1/CXF/JBossWS
//     on zero-operation WSDLs) cannot invoke anything — the defect
//     the static steps let through is finally observable;
//   - everything that genuinely passed steps 1–3 completes the round
//     trip, quantifying how predictive the three static steps are.

// Communication outcomes, indexing commCodes.
const (
	// commBlocked: an earlier step errored, no invocation possible.
	commBlocked outcome = iota
	// commNoOperations: artifacts exist but expose nothing to invoke
	// (the silent-failure stubs).
	commNoOperations
	// commFault: the invocation produced a SOAP fault or transport
	// error.
	commFault
	// commEchoMismatch: the call succeeded but the Execution step
	// returned wrong data.
	commEchoMismatch
	// commOK: full round trip with correct echo semantics.
	commOK
)

// commCodes names the communication outcomes.
var commCodes = []string{"blocked", "no-operations", "fault", "echo-mismatch", "ok"}

// commCells counts exchanged communication cells.
const commCells = "campaign.communication.cells"

// commAxis is the communication extension over the wire-axis
// executor: one echo exchange per (service × client) row, through a
// per-cell message-level sniffer whose counts the row carries as its
// two tallies (exchanges, message violations). The client reaches the
// wire only through its verdict, so the roster is one profile; a
// copied row still emits its cell's event.
var commAxis = &Axis{
	name:          "comm",
	Dumped:        true,
	Title:         "Communication & Execution extension (steps 4–5)",
	MarkdownTitle: "Communication & Execution extension",
	JSONKey:       "communication",
	columns:       []string{"echo"},
	codes:         commCodes,
	// Every outcome counts one exchanged cell.
	counters: []string{commCells, commCells, commCells, commCells, commCells},
	tallies:  2,
	view:     func(m *Matrix) WireResult { return commResult(m) },
	exchange: commRow,
	copied:   func(x *wireCall, row []outcome) { commEvent(x, row[0], 0) },
}

// CommSummary aggregates the communication extension for one server.
type CommSummary struct {
	Server       string
	Combinations int
	Blocked      int
	NoOperations int
	Faults       int
	Mismatches   int
	Succeeded    int
	// Exchanges and MessageViolations come from the wire-level sniffer
	// (transport.Sniffer): captured request/response pairs and WS-I
	// message-assertion findings among them, per combination. A
	// combination copied from its profile's representative carries the
	// representative's counts, so Exchanges counts the combinations
	// that reached the wire, not the exchanges the run made
	// (transport.attempts).
	Exchanges         int
	MessageViolations int
	// PathCollisions counts deployed services whose derived HTTP path
	// collided with an earlier endpoint and needed a deterministic
	// numeric suffix to stay reachable.
	PathCollisions int
}

// CommResult is the outcome of the communication extension across
// servers.
type CommResult struct {
	Servers     map[string]*CommSummary
	ServerOrder []string
	// Clients breaks the outcomes down per client framework across
	// all servers, attributing the blocked and silent-failure
	// combinations to the tools that caused them.
	Clients     map[string]*CommSummary
	ClientOrder []string
}

// Totals sums all server summaries.
func (r *CommResult) Totals() CommSummary {
	var t CommSummary
	t.Server = "total"
	for _, name := range r.ServerOrder {
		s := r.Servers[name]
		t.Combinations += s.Combinations
		t.Blocked += s.Blocked
		t.NoOperations += s.NoOperations
		t.Faults += s.Faults
		t.Mismatches += s.Mismatches
		t.Succeeded += s.Succeeded
		t.Exchanges += s.Exchanges
		t.MessageViolations += s.MessageViolations
		t.PathCollisions += s.PathCollisions
	}
	return t
}

// Axis returns the communication extension's declaration.
func (*CommResult) Axis() *Axis { return commAxis }

// RunCommunication executes the communication extension for every
// configured server framework.
func (r *Runner) RunCommunication(ctx context.Context) (*CommResult, error) {
	m, err := r.runAxis(ctx, commAxis)
	if err != nil {
		return nil, err
	}
	return commResult(m), nil
}

// commResult converts the executor's matrix into the result: its one
// column per server, with the row tallies and path collisions.
func commResult(m *Matrix) *CommResult {
	res := &CommResult{
		Servers:     make(map[string]*CommSummary, len(m.ServerOrder)),
		ServerOrder: m.ServerOrder,
		Clients:     make(map[string]*CommSummary, len(m.ClientOrder)),
		ClientOrder: m.ClientOrder,
	}
	for si, name := range m.ServerOrder {
		s := commSummary(name, m.Cells[si][0])
		s.Exchanges, s.MessageViolations = m.extra[si][0], m.extra[si][1]
		s.PathCollisions = m.Collisions[si]
		res.Servers[name] = s
	}
	for ci, name := range m.ClientOrder {
		res.Clients[name] = commSummary(name, m.Clients[ci])
	}
	return res
}

// commSummary converts an outcome histogram into a summary.
func commSummary(name string, n []int) *CommSummary {
	return &CommSummary{
		Server: name, Combinations: sum(n),
		Blocked: n[commBlocked], NoOperations: n[commNoOperations], Faults: n[commFault],
		Mismatches: n[commEchoMismatch], Succeeded: n[commOK],
	}
}

// commRow classifies one combination and records its latency and
// event.
func commRow(x *wireCall, row []outcome, tally []int) {
	start := x.r.met.now()
	row[0] = x.communicate(tally)
	x.r.met.observe(x.r.met.commSeconds, start)
	commEvent(x, row[0], x.r.met.since(start))
}

// commEvent emits one combination's event without a trace: the event
// log derives the (server, class, client) cell's content address when
// the event is read, so a cell the ring evicts is never hashed.
func commEvent(x *wireCall, o outcome, elapsed time.Duration) {
	x.r.obs.Emit(obs.Event{
		Stage:        "communication",
		Server:       x.svc.Server,
		Client:       x.client.Name(),
		Class:        x.svc.Class,
		Detail:       commCodes[o],
		ElapsedNanos: int64(elapsed),
	})
}

// communicate executes steps 4–5 for one combination and classifies
// the result. The exchange flows through its own message-level
// conformance sniffer — the wire-side complement of the step-1 WS-I
// check — whose exchange and violation counts land in tally.
func (x *wireCall) communicate(tally []int) outcome {
	if x.blocked {
		return commBlocked
	}
	if x.op == "" {
		// Artifacts with nothing to invoke: the silent failures.
		return commNoOperations
	}
	sniffer := transport.NewSniffer(x.host, x.r.checker).WithObs(x.r.obs)
	resp, err := x.invoke(x.via(sniffer))
	tally[0], tally[1] = sniffer.Exchanges(), len(sniffer.Findings())
	if err != nil {
		return commFault
	}
	if echoed, _ := resp.Field(x.probe); echoed != x.req.Fields[x.probe] {
		return commEchoMismatch
	}
	if resp.Local != x.op+"Response" {
		return commEchoMismatch
	}
	return commOK
}
