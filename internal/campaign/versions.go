package campaign

// Versions mode (`interop -versions`): the hybrid-version interop
// matrix. Every (published service × client) pair is exchanged once
// per version scenario — pure SOAP 1.1, pure SOAP 1.2, and two
// deliberately hybrid wires — against a host that declares its
// framework's version strictness, and the outcome is classified as
// accept, typed-reject, or silent-mishandle. The mode measures the
// paper's version-mismatch failure class end to end: a strict
// framework must refuse a mixed-version message with a typed error,
// and no swallowed mismatch (a hybrid wire or a relayed fault
// reported as success) may ever land in the accept bucket.
//
// Determinism follows the robustness-mode contract: cells land in
// pre-indexed slots, the fold runs serially in fixed (server,
// service, client, scenario) order, and all wire mutation is steered
// by per-request directive headers — so worker count and scheduling
// never change a cell. Like every wire axis the matrix journals (one
// record per service, under <checkpoint>/versions) and resumes; it is
// also the one axis whose shard journals merge (MergeVersions).

import (
	"context"
	"net/http"
	"sync"

	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// HeaderVersionScenario is the request header steering the version
// wire: the scenario name selects which hybrid mutation (if any) the
// wire applies to the exchange. Like the fault injector's directive
// header, it keeps all wire state per-request, so one wire instance
// serves any number of concurrent cells deterministically.
const HeaderVersionScenario = "X-Version-Scenario"

// Scenario names. The catalog order is fixed and covered by the
// checkpoint fingerprint.
const (
	scenarioV11           = "v11"
	scenarioV12           = "v12"
	scenarioHybridHeaders = "hybrid-headers"
	scenarioHybridFault   = "hybrid-fault"
)

// VersionScenario is one column group of the version matrix: the
// envelope codec the client speaks plus the wire mutation applied to
// the exchange.
type VersionScenario struct {
	// Name labels the scenario and is the wire directive value.
	Name string
	// Codec is the envelope version the client marshals and expects.
	Codec soap.Codec
	// HybridRequest rewrites the request's Content-Type to the SOAP
	// 1.2 media type while the body stays a 1.1 envelope — the
	// mixed-framing request the paper's version-mismatch findings
	// describe.
	HybridRequest bool
	// HybridFault replaces a successful response body with a SOAP 1.2
	// fault while keeping the 1.1 Content-Type and the 200 status — a
	// relayed fault in the wrong version vocabulary. A client that
	// reports success against this wire swallowed a failure.
	HybridFault bool
}

// VersionScenarios returns the scenario catalog in its fixed order:
// both pure versions, then the two hybrid wires.
func VersionScenarios() []VersionScenario {
	return []VersionScenario{
		{Name: scenarioV11, Codec: soap.V11},
		{Name: scenarioV12, Codec: soap.V12},
		{Name: scenarioHybridHeaders, Codec: soap.V11, HybridRequest: true},
		{Name: scenarioHybridFault, Codec: soap.V11, HybridFault: true},
	}
}

// Version-matrix outcomes, indexing versionsAxis.codes.
const (
	// versionSkipped: the static steps blocked the combination or the
	// artifacts expose nothing to invoke; no exchange happened.
	versionSkipped outcome = iota
	// versionAccepted: the round trip completed with intact echo
	// semantics over a wire that never mixed versions.
	versionAccepted
	// versionTypedReject: the client surfaced a typed error — a
	// *transport.VersionMismatchError, a relayed fault, or any other
	// refusal the caller can dispatch on.
	versionTypedReject
	// versionMishandled: the client reported success although the
	// exchange was wrong — a swallowed relayed fault, a corrupted or
	// misshapen echo, or a response wire that mixed versions.
	versionMishandled
)

// versionScenarios is the scenario catalog, the version axis's
// columns.
var versionScenarios = VersionScenarios()

// versionsAxis is the version matrix over the wire-axis executor: one
// exchange per scenario for every (service × client) row, against a
// host that declares its framework's version strictness.
var versionsAxis = &wireAxis{
	name:    "versions",
	columns: names(versionScenarios, func(sc VersionScenario) string { return sc.Name }),
	codes:   []string{"skipped", "accept", "typed-reject", "silent-mishandle"},
	counters: []string{"campaign.versions.skipped", "campaign.versions.accepted",
		"campaign.versions.typed_reject", "campaign.versions.silent_mishandle"},
	handler: func(_ *Runner, server string, host *transport.Host) http.Handler {
		host.SetVersionPolicy(&transport.VersionPolicy{
			Codec:      soap.V11,
			Strictness: framework.VersionStrictness(server),
		})
		return newVersionWire(host)
	},
	exchange: versionRow,
}

// VersionCounts aggregates cells of one matrix slice. Every field is
// a commutative sum, so partial counts fold in any order — the
// property journal replay and the shard merge rely on.
type VersionCounts struct {
	Cells      int
	Skipped    int
	Accepted   int
	Rejected   int
	Mishandled int
}

// versionCounts converts an outcome histogram into counts.
func versionCounts(n []int) *VersionCounts {
	return &VersionCounts{
		Cells: sum(n), Skipped: n[versionSkipped], Accepted: n[versionAccepted],
		Rejected: n[versionTypedReject], Mishandled: n[versionMishandled],
	}
}

// add accumulates another partial count.
func (c *VersionCounts) add(o *VersionCounts) {
	c.Cells += o.Cells
	c.Skipped += o.Skipped
	c.Accepted += o.Accepted
	c.Rejected += o.Rejected
	c.Mishandled += o.Mishandled
}

// VersionResult is the (server × client × scenario) version matrix,
// aggregated along its two presentation axes.
type VersionResult struct {
	// Scenarios lists the catalog columns in their fixed order.
	Scenarios []string
	// Servers maps server name → scenario name → counts.
	Servers     map[string]map[string]*VersionCounts
	ServerOrder []string
	// Clients maps client name → counts across all servers and
	// scenarios.
	Clients     map[string]*VersionCounts
	ClientOrder []string
	// PathCollisions counts deployments that needed a suffixed path.
	PathCollisions int
}

// ScenarioTotals sums each scenario column across servers.
func (r *VersionResult) ScenarioTotals() map[string]*VersionCounts {
	totals := make(map[string]*VersionCounts, len(r.Scenarios))
	for _, sc := range r.Scenarios {
		t := &VersionCounts{}
		for _, server := range r.ServerOrder {
			t.add(r.Servers[server][sc])
		}
		totals[sc] = t
	}
	return totals
}

// Totals sums the whole matrix.
func (r *VersionResult) Totals() VersionCounts {
	var t VersionCounts
	for _, server := range r.ServerOrder {
		for _, sc := range r.Scenarios {
			t.add(r.Servers[server][sc])
		}
	}
	return t
}

// wireCapture is the final on-the-wire response of one exchange, as
// the client saw it — recorded after every wire mutation, so the
// classification can ask what version(s) the bytes actually spoke.
type wireCapture struct {
	status      int
	contentType string
	body        []byte
}

// versionWire is the scenario-steered middleware between client and
// host: it applies the hybrid request/response mutations and taps the
// final response, keyed by the cell's trace header.
type versionWire struct {
	next http.Handler
	taps sync.Map // trace → *wireCapture
}

func newVersionWire(next http.Handler) *versionWire { return &versionWire{next: next} }

var _ http.Handler = (*versionWire)(nil)

// ServeHTTP implements http.Handler.
func (vw *versionWire) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	scenario := r.Header.Get(HeaderVersionScenario)
	if scenario == scenarioHybridHeaders {
		// The body stays the client's 1.1 envelope; only the framing
		// claims 1.2 — the host-side hybrid.
		r.Header.Set("Content-Type", soap.ContentType12)
	}
	rec := transport.NewCapture(0)
	vw.next.ServeHTTP(rec, r)
	status, ctype, body := rec.Status(), rec.Header().Get("Content-Type"), rec.Body()
	if scenario == scenarioHybridFault && status == http.StatusOK {
		// Replace the successful response with a 1.2 fault under the
		// unchanged 1.1 Content-Type and 200 status: the wire now
		// unambiguously signals failure, in the wrong vocabulary.
		if fb, err := soap.V12.MarshalFault(&soap.Fault{
			Code: soap.Fault12Receiver, String: "relayed upstream failure",
		}); err == nil {
			body = fb
		}
	}
	if trace := r.Header.Get(obs.TraceHeader); trace != "" {
		vw.taps.Store(trace, &wireCapture{status: status, contentType: ctype, body: body})
	}
	rec.WriteHeaderTo(w, status, ctype)
	_, _ = w.Write(body)
}

// take removes and returns the tapped response of one cell; nil when
// the exchange never produced a response (the cell was skipped).
func (vw *versionWire) take(trace string) *wireCapture {
	v, ok := vw.taps.LoadAndDelete(trace)
	if !ok {
		return nil
	}
	return v.(*wireCapture)
}

// versionRetryPolicy builds the per-cell client policy: a single
// attempt whose Annotate hook stamps the scenario directive onto the
// request — the same header-steered mechanism the fault injector
// uses, so the shared wire stays stateless per request.
func versionRetryPolicy(scenario string) *transport.RetryPolicy {
	return &transport.RetryPolicy{
		Annotate: func(_ int, h http.Header) { h.Set(HeaderVersionScenario, scenario) },
	}
}

// classifyVersion maps one exchange into the taxonomy. Order matters:
// a surfaced error is always a typed reject (the per-error-type
// breakdown is the transport's concern; the matrix only requires that
// the refusal was a typed Go error, which every transport error is);
// a success against the hybrid-fault wire swallowed a failure; a
// success with a corrupted or misshapen echo accepted wrong data; a
// success whose response wire mixed versions absorbed a hybrid
// without noticing. Only a clean echo over a coherent wire accepts.
func classifyVersion(sc VersionScenario, cap *wireCapture, resp *soap.Message, err error,
	wantLocal string, sent map[string]string, probeField string) outcome {
	if err != nil {
		return versionTypedReject
	}
	if sc.HybridFault {
		return versionMishandled
	}
	if resp.Local != wantLocal || len(resp.Fields) != len(sent) {
		return versionMishandled
	}
	for name := range sent {
		if _, ok := resp.Fields[name]; !ok {
			return versionMishandled
		}
	}
	if echoed, _ := resp.Field(probeField); echoed != sent[probeField] {
		return versionMishandled
	}
	if cap != nil && soap.Detect(cap.body, cap.contentType) == soap.VersionHybrid {
		return versionMishandled
	}
	return versionAccepted
}

// RunVersions executes the version matrix across every configured
// server framework. The matrix is deterministic at any worker count,
// journals per completed service when a checkpoint is configured, and
// resumes into a byte-identical result.
func (r *Runner) RunVersions(ctx context.Context) (*VersionResult, error) {
	t, err := r.runAxis(ctx, versionsAxis)
	if err != nil {
		return nil, err
	}
	return versionResult(t), nil
}

// versionResult converts the executor's tally into the matrix.
func versionResult(t *wireTally) *VersionResult {
	servers, clients := matrix(t, versionCounts)
	return &VersionResult{
		Scenarios: append([]string(nil), versionsAxis.columns...),
		Servers:   servers, ServerOrder: t.servers,
		Clients: clients, ClientOrder: t.clientOrder,
		PathCollisions: sum(t.collisions),
	}
}

// versionRow runs the scenario exchanges of one (service × client)
// pair, writing outcomes into the row's slots.
func versionRow(x *wireCall, row []outcome, _ []int) {
	if x.op == "" {
		for i := range row {
			row[i] = versionSkipped
		}
		return
	}
	wire := x.handler.(*versionWire)
	strict := framework.VersionStrictness(x.client.Name())
	for col, sc := range versionScenarios {
		trace := obs.TraceID("versions", x.svc.Server, x.svc.Class, x.client.Name(), sc.Name)
		req, probeField, resp, err := x.invoke(transport.NewLocalBridge(wire).
			WithCodec(sc.Codec).
			WithStrictness(strict).
			WithRetry(versionRetryPolicy(sc.Name)), trace)
		row[col] = classifyVersion(sc, wire.take(trace), resp, err, x.op+"Response", req.Fields, probeField)
	}
}

// MergeVersions folds the shard version journals under dirs into one
// VersionResult, using a runner built from opts — which must describe
// the exact campaign the shards ran. The package-level convenience
// form of Runner.MergeVersions.
func MergeVersions(ctx context.Context, dirs []string, opts ...Option) (*VersionResult, error) {
	return New(opts...).MergeVersions(ctx, dirs)
}

// MergeVersions folds completed shard version journals (the
// <checkpoint>/versions stores) into one VersionResult identical to a
// single-process run of the same configuration, except that
// PathCollisions sums each shard's deploy-time count — collisions are
// a property of which classes co-deploy, so a sharded campaign may
// legitimately observe fewer than an unsharded one. Every shard must
// hold its completion sentinel for every server stage; an interrupted
// shard is resumed in place before merging. The merge itself
// exchanges nothing: every cell replays from its journal record, and
// because every fold input is a commutative sum, replay order is
// free.
func (r *Runner) MergeVersions(ctx context.Context, dirs []string) (*VersionResult, error) {
	t, err := r.mergeAxis(ctx, versionsAxis, dirs)
	if err != nil {
		return nil, err
	}
	return versionResult(t), nil
}
