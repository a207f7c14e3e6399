package campaign

// The wire-axis executor: the one pipeline behind the extension modes
// that exchange SOAP messages over the in-process wire — steps 4–5 of
// the paper's Fig. 1, which it leaves as future work. Each mode
// (communication.go, robustness.go, versions.go) is one Axis
// declaration: its column catalog, its outcome codes, its host version
// policy, its client wire profile, its per-(service × client) exchange
// and its presentation. The executor owns the rest, once:
//
//   - per server stage: Publish's entry loop without WSDL bytes (no
//     cell reads them), deployPublished (each service's endpoint, which
//     keeps its typed document for ?wsdl, and its echo request, built
//     once for all its clients), the host with the axis's version
//     policy and the bridge with its invoke meters;
//   - one service job feed with cancellation: the worker that takes a
//     service reads each client's step-2/3 verdict, exchanges once per
//     client wire profile — for the profile's first unblocked client in
//     roster order, its representative — and copies that row into the
//     profile's other unblocked clients, writing pre-indexed
//     service × client × column slots;
//   - the serial fixed-order fold into the Matrix: per-(server,
//     column) and per-client outcome histograms, plus the axis's
//     per-code counters and its memoized counter;
//   - under WithCheckpoint, the cell journal (checkpoint.go) at
//     <checkpoint>/<axis>: one record per completed service, keyed by
//     its server and class and queued by the worker that ran it, and
//     one completion sentinel per server stage (the server's record
//     with no class) carrying the stage's path collisions;
//   - under WithResume, the replay of journaled services, and the
//     replay-only shard fold behind Merge.
//
// Slots are pre-indexed and the fold is serial, so worker count and
// scheduling never change a count; every count is a commutative sum,
// so replay and merge order are free.

import (
	"context"
	"fmt"
	"net/http"
	"slices"

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
	"wsinterop/internal/wsdl"
)

// outcome is one classified cell of a wire axis: an index into the
// axis's code names, journaled as that byte.
type outcome uint8

// Axis is one campaign mode's declaration. Its unexported fields drive
// the executor; its exported fields are the axis's presentation, which
// the CLI and internal/report read instead of naming axes.
type Axis struct {
	// name labels the axis: its -report mode, its checkpoint
	// subdirectory (the study journals at the root), its journal record
	// mode, and its fingerprint tag.
	name string
	// Flag names the CLI switch that runs the axis and prints its
	// section beside any -report; Usage is the switch's help. Empty for
	// an axis that runs only under its own -report mode.
	Flag, Usage string
	// Dumped includes the axis in the json and markdown dumps without
	// its flag.
	Dumped bool
	// Title heads the axis's text section, MarkdownTitle its Markdown
	// section, and JSONKey names its rows in the JSON dump.
	Title, MarkdownTitle, JSONKey string
	// Column heads a matrix axis's column in every format. Labels head
	// its outcome counts in text and Markdown and JSONKeys name them in
	// JSON, one per code: a code's table label may differ from its name
	// (robust's detected-fault prints as detected), and the names join
	// the journal fingerprint, so they stay as they are.
	Column           string
	Labels, JSONKeys []string
	// Verdict and MarkdownVerdict render a matrix axis's closing line.
	Verdict, MarkdownVerdict func(m *Matrix) string

	// columns names the exchanges of one (service × client) row, in
	// their fixed order.
	columns []string
	// codes names the outcomes, indexed by outcome; the names join the
	// journal fingerprint.
	codes []string
	// counters names the obs counter each outcome folds into.
	counters []string
	// tallies is the number of integer tallies a row reports beside
	// its outcomes (summed per server by the fold).
	tallies int
	// view converts the fold into the axis's result; nil means the
	// Matrix is the result.
	view func(m *Matrix) WireResult
	// version, when set, returns the version policy a server stage's
	// host declares; nil leaves the host's SOAP 1.1 default.
	version func(server string) *transport.VersionPolicy
	// profile keys a client's wire profile: every unblocked client of
	// one profile puts the same bytes on the wire for a service, so the
	// executor exchanges once per (service, profile) and copies the
	// row. nil puts the whole roster in one profile.
	profile func(client string) int
	// exchange fills one (service × client) row: an outcome per column
	// and the row's tallies.
	exchange func(x *wireCall, row []outcome, tally []int)
	// copied, when set, records a row the executor copied from its
	// profile's representative, as exchange records the rows it runs.
	copied func(x *wireCall, row []outcome)
}

// wireAxes lists every wire axis in report order, so the runner's
// metrics register their counters up front and Merge, the CLI and the
// reports iterate them.
var wireAxes = []*Axis{commAxis, robustAxis, versionsAxis}

// WireAxes returns every wire axis's declaration, in report order.
func WireAxes() []*Axis { return slices.Clone(wireAxes) }

// Name is the axis's -report mode and journal name.
func (ax *Axis) Name() string { return ax.name }

// result converts a fold into the axis's result.
func (ax *Axis) result(m *Matrix) WireResult {
	if ax.view == nil {
		return m
	}
	return ax.view(m)
}

// WireResult is one wire axis's result: a *Matrix, or the
// communication extension's *CommResult.
type WireResult interface {
	// Axis returns the declaration of the axis that produced the result.
	Axis() *Axis
}

// profileOf returns a client's wire profile.
func (ax *Axis) profileOf(client string) int {
	if ax.profile == nil {
		return 0
	}
	return ax.profile(client)
}

// complete is the journal mode of the axis's completion sentinels.
func (ax *Axis) complete() string { return ax.name + "-complete" }

// completes reports whether rec is one of the axis's completion
// sentinels: a server's record with no class and the sentinel mode.
func (ax *Axis) completes(rec *journal.Record) bool {
	return rec.Class == "" && rec.Mode == ax.complete()
}

// wireCall is one (service × client) row of an axis.
type wireCall struct {
	ctx context.Context
	r   *Runner
	// host is the stage host, which a row's middleware wraps.
	host http.Handler
	// bridge is the stage's in-process client over host, metered into
	// the runner's registry; exchanges derive their per-cell copies
	// from it.
	bridge *transport.Client
	client framework.ClientFramework
	svc    *PublishedService
	// blocked marks a combination whose static steps failed. The
	// deployment is zero when blocked; its op is empty too when the
	// artifacts expose nothing (the silent no-operation stubs).
	blocked bool
	// loopback, when set, replaces bridge.WithHandler for the rows
	// (via): the test-side network oracle serves the row's middleware
	// on a loopback server and returns its networked client, and its
	// rows' endpoint paths are URLs on that server. Production leaves
	// it nil.
	loopback func(h http.Handler) *transport.Client
	deployment
}

// via returns the client a row invokes its middleware h with: a copy
// of the stage's in-process client over h, or what loopback returns
// for h.
func (x *wireCall) via(h http.Handler) *transport.Client {
	if x.loopback == nil {
		return x.bridge.WithHandler(h)
	}
	return x.loopback(h)
}

// invoke sends the service's echo request through client.
func (x *wireCall) invoke(client *transport.Client) (*soap.Message, error) {
	return client.Invoke(x.ctx, x.ep.Path, x.req)
}

// Matrix is the fold of one wire axis run: outcome histograms per
// (server × column) and per client, indexed in roster, column and code
// order. Every count is a commutative sum, so journal replay and shard
// merge fold in any order. It is the result of every matrix axis; the
// communication extension converts it (commResult).
type Matrix struct {
	ax *Axis
	// Columns lists the axis's columns in their fixed order.
	Columns     []string
	ServerOrder []string
	ClientOrder []string
	// Cells holds server → column → outcome → count.
	Cells [][][]int
	// Clients holds client → outcome → count, across servers and
	// columns.
	Clients [][]int
	// Collisions holds server → deployments that needed a suffixed
	// path. A merge sums them per shard: collisions depend on which
	// classes co-deploy.
	Collisions []int
	// extra holds server → summed row tallies.
	extra [][]int
}

func (r *Runner) newMatrix(ax *Axis) *Matrix {
	m := &Matrix{ax: ax, Columns: slices.Clone(ax.columns), Collisions: make([]int, len(r.servers))}
	for _, s := range r.servers {
		m.ServerOrder = append(m.ServerOrder, s.Name())
		cols := make([][]int, len(ax.columns))
		for i := range cols {
			cols[i] = make([]int, len(ax.codes))
		}
		m.Cells = append(m.Cells, cols)
		m.extra = append(m.extra, make([]int, ax.tallies))
	}
	for _, c := range r.clients {
		m.ClientOrder = append(m.ClientOrder, c.Name())
		m.Clients = append(m.Clients, make([]int, len(ax.codes)))
	}
	return m
}

// Axis returns the declaration of the axis the matrix folds.
func (m *Matrix) Axis() *Axis { return m.ax }

// ColumnTotals sums each column's histogram across servers, in column
// order.
func (m *Matrix) ColumnTotals() [][]int {
	out := make([][]int, len(m.Columns))
	for col := range out {
		out[col] = make([]int, len(m.ax.codes))
		for _, cols := range m.Cells {
			for o, n := range cols[col] {
				out[col][o] += n
			}
		}
	}
	return out
}

// Totals sums the whole matrix's histogram.
func (m *Matrix) Totals() []int {
	out := make([]int, len(m.ax.codes))
	for _, col := range m.ColumnTotals() {
		for o, n := range col {
			out[o] += n
		}
	}
	return out
}

// PathCollisions counts the deployments that needed a suffixed path.
func (m *Matrix) PathCollisions() int { return sum(m.Collisions) }

// fold adds outcome and tally slots of server si — a whole stage, or
// one journaled service's codes — to the matrix and to the axis's
// counters.
func fold[C ~uint8](m *Matrix, counters []*obs.Counter, si int, codes []C, tallies []int) {
	ncol, nc := len(m.Columns), len(m.Clients)
	for idx, o := range codes {
		m.Cells[si][idx%ncol][o]++
		m.Clients[(idx/ncol)%nc][o]++
		counters[o].Inc()
	}
	for i, v := range tallies {
		m.extra[si][i%m.ax.tallies] += v
	}
}

// names lists a catalog's entry names, in catalog order: an axis's
// columns.
func names[T any](catalog []T, name func(T) string) []string {
	out := make([]string, len(catalog))
	for i, e := range catalog {
		out[i] = name(e)
	}
	return out
}

// sum adds up a count slice: an outcome histogram's cells, or a
// matrix's collisions.
func sum(n []int) int {
	s := 0
	for _, v := range n {
		s += v
	}
	return s
}

// RunWire executes one wire axis across every configured server
// framework and returns its result.
func (r *Runner) RunWire(ctx context.Context, ax *Axis) (WireResult, error) {
	m, err := r.runAxis(ctx, ax)
	if err != nil {
		return nil, err
	}
	return ax.result(m), nil
}

// runAxis executes one wire axis across every configured server
// framework.
func (r *Runner) runAxis(ctx context.Context, ax *Axis) (*Matrix, error) {
	cj, err := r.openJournal(ax)
	if err != nil {
		return nil, err
	}
	m := r.newMatrix(ax)
	for si, server := range r.servers {
		if err := r.runAxisStage(ctx, ax, cj, m, si, server); err != nil {
			// Close flushes, so every service completed before the
			// interruption is durable for the resume.
			_ = cj.close()
			return nil, fmt.Errorf("%s on %s: %w", ax.name, server.Name(), err)
		}
	}
	if err := cj.close(); err != nil {
		return nil, err
	}
	// The durable-point probes fire from the writer goroutine; a
	// cancellation they trigger during the final flush must still win,
	// as it does in Run.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// runAxisStage runs one server stage: deploy, replay, exchange, fold.
// A stage whose completion sentinel is journaled folds its records and
// the sentinel's collisions without publishing or deploying anything.
// An unfinished stage deploys every published service, replayed or
// not: the path-collision suffixes depend on the full set.
func (r *Runner) runAxisStage(ctx context.Context, ax *Axis, cj *cellJournal, m *Matrix,
	si int, server framework.ServerFramework) error {
	name := server.Name()
	sp, err := r.planFor(server)
	if err != nil {
		return err
	}
	if sentinel, done := cj.record(name, ""); done {
		return r.replayStage(ax, cj, m, si, sp, sentinel)
	}
	published, _, err := r.publish(ctx, server, false)
	if err != nil {
		return err
	}
	host := transport.NewHost()
	if ax.version != nil {
		host.SetVersionPolicy(ax.version(name))
	}
	bridge := transport.NewLocalBridge(host).WithObs(r.obs)
	deployed, collisions, err := r.deployPublished(host, server, sp.defs, published)
	if err != nil {
		return err
	}
	m.Collisions[si] = collisions

	nc, ncol, nt := len(r.clients), len(ax.columns), ax.tallies
	codes := make([]outcome, len(published)*nc*ncol)
	tallies := make([]int, len(published)*nc*nt)
	copies := make([]int, len(published)) // memoized cells per service
	service := func(pi int) ([]outcome, []int) {
		return codes[pi*nc*ncol : (pi+1)*nc*ncol], tallies[pi*nc*nt : (pi+1)*nc*nt]
	}

	// Resume: replay journaled services into their slots, which keeps
	// them out of the feed.
	todo := make([]int, 0, len(published)) // the services the feed exchanges, in catalog order
	for pi := range published {
		rec, ok := cj.record(name, published[pi].Class)
		if !ok {
			todo = append(todo, pi)
			continue
		}
		if err := r.checkAxisRecord(ax, rec); err != nil {
			return err
		}
		c, n := service(pi)
		for i, code := range rec.Codes {
			c[i] = outcome(code)
		}
		copy(n, rec.Tallies)
		cj.resumed.Inc()
	}

	stage := wireCall{ctx: ctx, r: r, host: host, bridge: bridge}
	err = r.feed(ctx, len(todo), func(job int) {
		pi := todo[job]
		c, n := service(pi)
		copies[pi] = ax.exchangeService(&stage, &published[pi], &deployed[pi], c, n)
		// A cancellation may have cut a retry or an exchange short, so
		// nothing after it journals; without a journal there is no
		// record to build.
		if cj != nil && ctx.Err() == nil {
			cj.append(axisRecord(ax, name, published[pi].Class, c, n))
		}
	})
	if err != nil {
		return err
	}

	// Serial fixed-order fold: counters land here, inside the
	// determinism contract, never in workers.
	fold(m, r.met.axisCounters(ax), si, codes, tallies)
	r.met.axisMemoized(ax).Add(int64(sum(copies)))
	r.completeStage(cj, ax, name, collisions)
	return nil
}

// exchangeService runs one service job of a stage, whose context,
// runner, host and bridge stage carries: it reads each client's
// step-2/3 verdict, exchanges once per client wire profile — for the
// profile's first unblocked client in roster order, its representative
// — and copies that row into the profile's other unblocked clients. c
// and n are the service's outcome and tally slots, in roster and column
// order. It returns the number of copied cells.
func (ax *Axis) exchangeService(stage *wireCall, svc *PublishedService, d *deployment, c []outcome, n []int) (copies int) {
	ncol, nt := len(ax.columns), ax.tallies
	// One row state per job, reset for each client: the axis's funcs
	// take it by pointer, so a per-client literal would move to the
	// heap once per cell.
	x := new(wireCall)
	reps := make([]profileRep, 0, 4) // in roster order of their representatives
clients:
	for ci, client := range stage.r.clients {
		row, tally := c[ci*ncol:(ci+1)*ncol], n[ci*nt:(ci+1)*nt]
		*x = *stage
		x.client, x.svc = client, svc
		// Steps 4–5 start only where steps 2–3 succeeded; the generated
		// proxy's first method is the document's first operation
		// (unitgen's port-type order).
		code := stage.r.verdict(svc, ci)
		x.blocked = code.errorAnywhere() || code&codeCompileRan == 0
		if !x.blocked {
			x.deployment = *d
		}
		// Blocked and no-operation rows exchange nothing; the rest copy
		// their profile's representative once it has run.
		if !x.blocked && x.op != "" {
			p := ax.profileOf(client.Name())
			for _, rep := range reps {
				if rep.profile != p {
					continue
				}
				copy(row, c[rep.client*ncol:(rep.client+1)*ncol])
				copy(tally, n[rep.client*nt:(rep.client+1)*nt])
				copies += ncol
				if ax.copied != nil {
					ax.copied(x, row)
				}
				continue clients
			}
			reps = append(reps, profileRep{profile: p, client: ci})
		}
		ax.exchange(x, row, tally)
	}
	return copies
}

// profileRep names the representative of one client wire profile on a
// service: the roster index of the profile's first exchanged client.
type profileRep struct{ profile, client int }

// axisRecord encodes one fully exchanged service: every client's
// outcome codes and tallies, in roster and column order.
func axisRecord(ax *Axis, server, class string, codes []outcome, tallies []int) journal.Record {
	rec := journal.Record{Server: server, Class: class, Mode: ax.name, Published: true, Codes: codeBytes(codes)}
	if len(tallies) > 0 {
		rec.Tallies = append([]int(nil), tallies...)
	}
	return rec
}

// checkAxisRecord refuses a journaled service that is not a published
// cell of the axis or does not fit its catalogs and the roster.
func (r *Runner) checkAxisRecord(ax *Axis, rec *journal.Record) error {
	if rec.Mode != ax.name || !rec.Published {
		return recordError(rec, "mode %q is not a %s cell", rec.Mode, ax.name)
	}
	return r.checkRecord(ax, rec)
}

// replayStage folds a finished stage from the journal: every published
// class's record, in catalog order, then the stage sentinel.
func (r *Runner) replayStage(ax *Axis, cj *cellJournal, m *Matrix, si int,
	sp *serverPlan, sentinel *journal.Record) error {
	for _, def := range sp.defs {
		if rec, ok := cj.record(sp.Server, def.Parameter.Name); ok {
			if err := r.foldRecord(m, si, rec, cj.resumed); err != nil {
				return err
			}
		}
	}
	return r.foldRecord(m, si, sentinel, cj.resumed)
}

// foldShards folds one axis's unioned shard records (loadShards) into
// the axis's result. It exchanges nothing: every service replays from
// its record, and the path collisions sum the shards' sentinels.
func (r *Runner) foldShards(ax *Axis, recs []journal.Record) (WireResult, error) {
	m := r.newMatrix(ax)
	roster := make(map[string]int, len(m.ServerOrder))
	for si, name := range m.ServerOrder {
		roster[name] = si
	}
	resumed := r.obs.Counter("journal.cells.resumed")
	for i := range recs {
		rec := &recs[i]
		si, ok := roster[rec.Server]
		if !ok {
			return nil, recordError(rec, "server %q is not in this roster", rec.Server)
		}
		if err := r.foldRecord(m, si, rec, resumed); err != nil {
			return nil, err
		}
	}
	return ax.result(m), nil
}

// foldRecord folds one journaled record of server si into the matrix:
// a stage sentinel's path collisions, or a service's outcome codes and
// tallies, counted as resumed.
func (r *Runner) foldRecord(m *Matrix, si int, rec *journal.Record, resumed *obs.Counter) error {
	if m.ax.completes(rec) {
		m.Collisions[si] += rec.Collisions
		return nil
	}
	if err := r.checkAxisRecord(m.ax, rec); err != nil {
		return err
	}
	fold(m, r.met.axisCounters(m.ax), si, rec.Codes, rec.Tallies)
	resumed.Inc()
	return nil
}

// deployment is one published service on its stage host: the endpoint,
// the operation its generated proxy invokes, and that operation's echo
// request with its probe field, which every client cell of the service
// sends and reads without changing it. All are zero for a
// zero-operation document, which the runtime refuses to deploy.
type deployment struct {
	ep    *transport.Endpoint
	op    string
	req   *soap.Message
	probe string
}

// echo checks a successful exchange's response against the
// deployment's echo request. It is shaped when it is the operation's
// response wrapper with exactly the request's fields — the check a
// generated proxy's deserializer makes against the declared response
// message — and intact when it is shaped and the probe field came back
// unchanged.
func (d *deployment) echo(resp *soap.Message) (shaped, intact bool) {
	if resp.Local != d.op+"Response" || len(resp.Fields) != len(d.req.Fields) {
		return false, false
	}
	for name := range d.req.Fields {
		if _, ok := resp.Fields[name]; !ok {
			return false, false
		}
	}
	echoed, _ := resp.Field(d.probe)
	return true, echoed == d.req.Fields[d.probe]
}

// deployPublished deploys every published service once, from the typed
// document its server emits for the plan's definition — the route the
// daemon's POST /services takes. The endpoint keeps that document and
// the host renders it only when a GET ?wsdl asks, so a stage serializes
// nothing; the rendered bytes equal the Doc Publish returns, and the
// wire reference tests deploy from those bytes, parsed, and require the
// same deployments. Zero-operation documents are rejected by the
// runtime exactly as FromWSDL defines. A path collision between two
// services is resolved with a deterministic numeric suffix and
// counted, so the summary can surface it instead of
// silently dropping an endpoint.
func (r *Runner) deployPublished(host *transport.Host, server framework.ServerFramework,
	defs []services.Definition, published []PublishedService) ([]deployment, int, error) {
	out := make([]deployment, len(published))
	collisions, di := 0, 0
	for i := range published {
		class := published[i].Class
		// Publish keeps catalog order, so one forward walk pairs each
		// service with its definition.
		for di < len(defs) && defs[di].Parameter.Name != class {
			di++
		}
		if di == len(defs) {
			return nil, 0, fmt.Errorf("deploy %s: no definition in the %s plan", class, server.Name())
		}
		doc, err := server.Publish(defs[di])
		if err != nil {
			return nil, 0, fmt.Errorf("deploy %s: %w", class, err)
		}
		if deploy(host, doc, &published[i], &out[i]) {
			collisions++
		}
	}
	return out, collisions, nil
}

// deploy derives svc's deployment from its typed document into d and
// deploys its endpoint on host, suffixing the path when it collides;
// it reports whether it did. A zero-operation document leaves d zero.
func deploy(host *transport.Host, doc *wsdl.Definitions, svc *PublishedService, d *deployment) (collided bool) {
	ep, err := transport.FromWSDL(doc)
	if err != nil {
		return false // zero-operation services stay undeployed
	}
	if err := host.Deploy(ep); err != nil {
		collided = true
		base := ep.Path
		for n := 2; ; n++ {
			ep.Path = fmt.Sprintf("%s-%d", base, n)
			if host.Deploy(ep) == nil {
				break
			}
		}
	}
	d.ep = ep
	for _, pt := range doc.PortTypes {
		if len(pt.Operations) > 0 {
			d.op = pt.Operations[0].Name
			d.req, d.probe = buildEchoRequest(ep, d.op, svc.Class)
			break
		}
	}
	return collided
}

// buildEchoRequest builds the invocation payload for one operation
// from the endpoint's field specifications (lexically valid samples
// for scalar fields, a probe string for the parameter bean) so the
// Execution step's payload validation is genuinely exercised. It
// returns the request and the field whose echo proves the round trip.
func buildEchoRequest(ep *transport.Endpoint, op, class string) (*soap.Message, string) {
	probe := "probe:" + class
	fields := make(map[string]string, 2)
	probeField := ""
	for _, spec := range ep.Inputs[op] {
		fields[spec.Name] = transport.SampleValue(spec, probe)
		if probeField == "" && fields[spec.Name] == probe {
			probeField = spec.Name
		}
	}
	if len(fields) == 0 {
		fields["input"] = probe
		probeField = "input"
	}
	if probeField == "" {
		probeField = ep.Inputs[op][0].Name
	}
	return &soap.Message{Namespace: ep.Namespace, Local: op, Fields: fields}, probeField
}
