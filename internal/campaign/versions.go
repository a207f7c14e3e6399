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
// service, client, scenario) order, and all wire mutation happens in a
// version wire each row owns — so worker count and scheduling never
// change a cell. Like every campaign mode the matrix journals
// (one record per service, under <checkpoint>/versions), resumes, and
// merges across shards (Runner.Merge).

import (
	"context"
	"fmt"
	"net/http"
	"slices"

	"wsinterop/internal/framework"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

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
	// Name labels the scenario: its column in the matrix.
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

// versionCodes names the version-matrix outcomes.
var versionCodes = []string{"skipped", "accept", "typed-reject", "silent-mishandle"}

// versionsAxis is the version matrix over the wire-axis executor: one
// exchange per scenario for every (service × client) row, against a
// host that declares its framework's version strictness. A client
// reaches the wire through its declared strictness, which is its wire
// profile.
var versionsAxis = &Axis{
	name:          "versions",
	Flag:          "versions",
	Usage:         "run the SOAP version interop matrix (server × client × version scenario) and print its report",
	Title:         "Version matrix extension (SOAP 1.1 / 1.2 / hybrid)",
	MarkdownTitle: "Version matrix extension (SOAP 1.1 / 1.2 / hybrid)",
	JSONKey:       "versions",
	Column:        "scenario",
	Labels:        versionCodes,
	JSONKeys:      []string{"skipped", "accepted", "typedReject", "silentMishandle"},
	Verdict: func(m *Matrix) string {
		hf := m.ColumnTotals()[slices.Index(m.Columns, scenarioHybridFault)]
		return fmt.Sprintf("hybrid-fault cells accepted: %d (0 means no swallowed fault is reported as success); %d silent-mishandles overall",
			hf[versionAccepted], m.Totals()[versionMishandled])
	},
	MarkdownVerdict: func(m *Matrix) string {
		n := m.Totals()
		return fmt.Sprintf("typed rejects: %d · silent mishandles: %d", n[versionTypedReject], n[versionMishandled])
	},
	columns: names(versionScenarios, func(sc VersionScenario) string { return sc.Name }),
	codes:   versionCodes,
	counters: []string{"campaign.versions.skipped", "campaign.versions.accepted",
		"campaign.versions.typed_reject", "campaign.versions.silent_mishandle"},
	version: func(server string) *transport.VersionPolicy {
		return &transport.VersionPolicy{Codec: soap.V11, Strictness: framework.VersionStrictness(server)}
	},
	profile:  func(client string) int { return int(framework.VersionStrictness(client)) },
	exchange: versionRow,
}

// VersionCounts names a version histogram's outcomes.
type VersionCounts struct {
	Cells      int
	Skipped    int
	Accepted   int
	Rejected   int
	Mishandled int
}

// VersionResult is the (server × client × scenario) version matrix.
type VersionResult struct{ *Matrix }

// Totals sums the whole matrix.
func (r *VersionResult) Totals() VersionCounts { return *versionNamed(r.Matrix.Totals()) }

// ScenarioTotals sums each scenario column across servers.
func (r *VersionResult) ScenarioTotals() map[string]*VersionCounts {
	totals := make(map[string]*VersionCounts, len(r.Columns))
	for col, n := range r.ColumnTotals() {
		totals[r.Columns[col]] = versionNamed(n)
	}
	return totals
}

// versionNamed names a version histogram's counts.
func versionNamed(n []int) *VersionCounts {
	return &VersionCounts{Cells: sum(n), Skipped: n[versionSkipped], Accepted: n[versionAccepted],
		Rejected: n[versionTypedReject], Mishandled: n[versionMishandled]}
}

// versionWire is one row's scenario-steered middleware between client
// and host. The row sets the scenario before each exchange; the wire
// applies its hybrid request and response mutations and keeps the
// final response the client saw — after every mutation — so the
// classification can ask what version(s) the bytes actually spoke.
type versionWire struct {
	next        http.Handler
	sc          VersionScenario
	contentType string
	body        []byte
}

var _ http.Handler = (*versionWire)(nil)

// ServeHTTP implements http.Handler.
func (vw *versionWire) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if vw.sc.HybridRequest {
		// The body stays the client's 1.1 envelope; only the framing
		// claims 1.2 — the host-side hybrid.
		r.Header.Set("Content-Type", soap.ContentType12)
	}
	rec := transport.NewCapture(0)
	vw.next.ServeHTTP(rec, r)
	status, ctype, body := rec.Status(), rec.Header().Get("Content-Type"), rec.Body()
	if vw.sc.HybridFault && status == http.StatusOK {
		// Replace the successful response with a 1.2 fault under the
		// unchanged 1.1 Content-Type and 200 status: the wire now
		// unambiguously signals failure, in the wrong vocabulary.
		if fb, err := soap.V12.MarshalFault(&soap.Fault{
			Code: soap.Fault12Receiver, String: "relayed upstream failure",
		}); err == nil {
			body = fb
		}
	}
	vw.contentType, vw.body = ctype, body
	rec.WriteHeaderTo(w, status, ctype)
	rec.Release()
	_, _ = w.Write(body)
}

// classifyVersion maps one exchange into the taxonomy. Order matters:
// a surfaced error is always a typed reject (the per-error-type
// breakdown is the transport's concern; the matrix only requires that
// the refusal was a typed Go error, which every transport error is);
// a success against the hybrid-fault wire swallowed a failure; a
// success with a corrupted or misshapen echo accepted wrong data; a
// success whose response wire mixed versions absorbed a hybrid
// without noticing. Only a clean echo over a coherent wire accepts.
func classifyVersion(wire *versionWire, d *deployment, resp *soap.Message, err error) outcome {
	if err != nil {
		return versionTypedReject
	}
	if wire.sc.HybridFault {
		return versionMishandled
	}
	if _, intact := d.echo(resp); !intact {
		return versionMishandled
	}
	if soap.Detect(wire.body, wire.contentType) == soap.VersionHybrid {
		return versionMishandled
	}
	return versionAccepted
}

// RunVersions executes the version matrix across every configured
// server framework. The matrix is deterministic at any worker count,
// journals per completed service when a checkpoint is configured, and
// resumes into a byte-identical result.
func (r *Runner) RunVersions(ctx context.Context) (*VersionResult, error) {
	m, err := r.runAxis(ctx, versionsAxis)
	if err != nil {
		return nil, err
	}
	return &VersionResult{m}, nil
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
	wire := versionWire{next: x.host}
	bridge := x.via(&wire).WithStrictness(framework.VersionStrictness(x.client.Name()))
	for col, sc := range versionScenarios {
		// Reset the tap too: an exchange that never reaches the host
		// leaves nothing to detect.
		wire.sc, wire.contentType, wire.body = sc, "", nil
		resp, err := x.invoke(bridge.WithCodec(sc.Codec))
		row[col] = classifyVersion(&wire, &x.deployment, resp, err)
	}
}
