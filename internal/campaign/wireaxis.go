package campaign

// The wire-axis executor: the one pipeline behind the extension modes
// that exchange SOAP messages over the in-process wire — steps 4–5 of
// the paper's Fig. 1, which it leaves as future work. Each mode
// (communication.go, robustness.go, versions.go) is a wireAxis: its
// column catalog, its outcome codes, its handler wrap and its
// per-(service × client) exchange. The executor owns the rest, once:
//
//   - per server stage: Publish, deployPublished and the axis's
//     handler chain;
//   - one (service × client) job feed with cancellation, each job
//     writing its outcome codes into pre-indexed service × client ×
//     column slots;
//   - the serial fixed-order fold into per-(server, column) and
//     per-client tallies, plus the axis's per-code counters;
//   - under WithCheckpoint, the journal at <checkpoint>/<axis>: one
//     record per completed service, written by the worker that
//     finishes its last client row, and one completion sentinel per
//     (shard, server) stage carrying the stage's path collisions;
//   - under WithResume, the replay of journaled services, and the
//     replay-only shard merge.
//
// Slots are pre-indexed and the fold is serial, so worker count and
// scheduling never change a tally; every tally is a commutative sum,
// so replay and merge order are free.

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"

	"wsinterop/internal/artifact"
	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
	"wsinterop/internal/wsdl"
)

// outcome is one classified cell of a wire axis: an index into the
// axis's code names. The name is the journal encoding.
type outcome uint8

// wireAxis is one wire mode's definition over the executor.
type wireAxis struct {
	// name labels the axis: its checkpoint subdirectory, its journal
	// record mode and trace prefix, and its fingerprint tag.
	name string
	// columns names the exchanges of one (service × client) row, in
	// their fixed order.
	columns []string
	// codes names the outcomes, indexed by outcome.
	codes []string
	// counters names the obs counter each outcome folds into.
	counters []string
	// tallies is the number of integer tallies a row reports beside
	// its outcomes (summed per server by the fold).
	tallies int
	// handler prepares one server stage's host and returns the
	// handler every exchange of the stage goes through.
	handler func(r *Runner, server string, host *transport.Host) http.Handler
	// exchange fills one (service × client) row: an outcome per column
	// and the row's tallies.
	exchange func(x *wireCall, row []outcome, tally []int)
}

// wireAxes lists every axis, so the runner's metrics register their
// counters up front.
var wireAxes = []*wireAxis{commAxis, robustAxis, versionsAxis}

// parse inverts the code names for journal replay.
func (ax *wireAxis) parse(name string) (outcome, bool) {
	for i, c := range ax.codes {
		if c == name {
			return outcome(i), true
		}
	}
	return 0, false
}

// trace is the journal key of one service's record.
func (ax *wireAxis) trace(server, class string) string {
	return obs.TraceID(ax.name, server, class)
}

// sentinel is the journal key of one shard's completion sentinel for a
// server stage. The shard coordinates keep sentinels from different
// shards apart in a merge union.
func (ax *wireAxis) sentinel(shard ShardSpec, server string) string {
	return obs.TraceID(ax.name+"-complete", shard.String(), server)
}

// wireCall is one (service × client) job of an axis.
type wireCall struct {
	ctx     context.Context
	r       *Runner
	handler http.Handler
	client  framework.ClientFramework
	svc     *PublishedService
	ep      *transport.Endpoint
	// blocked marks a combination whose static steps failed; op is the
	// operation to invoke, empty when blocked or when the artifacts
	// expose nothing (the silent no-operation stubs).
	blocked bool
	op      string
}

// invoke sends the operation's echo request through bridge under the
// cell's trace and returns the request, its probe field and the
// response.
func (x *wireCall) invoke(bridge *transport.LocalBridge, trace string) (*soap.Message, string, *soap.Message, error) {
	req, probe := buildEchoRequest(x.ep, x.op, x.svc.Class)
	resp, err := bridge.WithObs(x.r.obs).Invoke(obs.WithTrace(x.ctx, trace), x.ep.Path, req)
	return req, probe, resp, err
}

// wireTally is the fold of one axis run, indexed in roster order.
type wireTally struct {
	ax          *wireAxis
	servers     []string
	clientOrder []string
	cells       [][][]int      // server → column → outcome → count
	clients     [][]int        // client → outcome → count
	extra       [][]int        // server → summed row tallies
	collisions  []int          // server → deploy path collisions
	counters    []*obs.Counter // outcome → fold counter
}

func (r *Runner) newWireTally(ax *wireAxis) *wireTally {
	t := &wireTally{ax: ax, collisions: make([]int, len(r.servers)), counters: r.met.axisCounters(ax)}
	for _, s := range r.servers {
		t.servers = append(t.servers, s.Name())
		cols := make([][]int, len(ax.columns))
		for i := range cols {
			cols[i] = make([]int, len(ax.codes))
		}
		t.cells = append(t.cells, cols)
		t.extra = append(t.extra, make([]int, ax.tallies))
	}
	for _, c := range r.clients {
		t.clientOrder = append(t.clientOrder, c.Name())
		t.clients = append(t.clients, make([]int, len(ax.codes)))
	}
	return t
}

// fold adds outcome and tally slots of server si — a whole stage, or
// one replayed service — to the tally.
func (t *wireTally) fold(si int, codes []outcome, tallies []int) {
	ncol, nc := len(t.ax.columns), len(t.clients)
	for idx, o := range codes {
		t.cells[si][idx%ncol][o]++
		t.clients[(idx/ncol)%nc][o]++
		t.counters[o].Inc()
	}
	for i, v := range tallies {
		t.extra[si][i%t.ax.tallies] += v
	}
}

// matrix converts the tally into a matrix result's server → column →
// counts and client → counts maps.
func matrix[C any](t *wireTally, counts func(n []int) *C) (map[string]map[string]*C, map[string]*C) {
	servers := make(map[string]map[string]*C, len(t.servers))
	for si, name := range t.servers {
		cols := make(map[string]*C, len(t.ax.columns))
		for col, c := range t.ax.columns {
			cols[c] = counts(t.cells[si][col])
		}
		servers[name] = cols
	}
	clients := make(map[string]*C, len(t.clientOrder))
	for ci, name := range t.clientOrder {
		clients[name] = counts(t.clients[ci])
	}
	return servers, clients
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
// tally's collisions.
func sum(n []int) int {
	s := 0
	for _, v := range n {
		s += v
	}
	return s
}

// runAxis executes one wire axis across every configured server
// framework.
func (r *Runner) runAxis(ctx context.Context, ax *wireAxis) (*wireTally, error) {
	aj, err := r.openAxisJournal(ax)
	if err != nil {
		return nil, err
	}
	t := r.newWireTally(ax)
	for si, server := range r.servers {
		if err := r.runAxisStage(ctx, ax, aj, t, si, server); err != nil {
			// Close flushes, so every service completed before the
			// interruption is durable for the resume.
			_ = aj.close()
			return nil, fmt.Errorf("%s on %s: %w", ax.name, server.Name(), err)
		}
	}
	if err := aj.close(); err != nil {
		return nil, err
	}
	return t, nil
}

// runAxisStage runs one server stage: deploy, replay, exchange, fold.
func (r *Runner) runAxisStage(ctx context.Context, ax *wireAxis, aj *axisJournal, t *wireTally,
	si int, server framework.ServerFramework) error {
	name := server.Name()
	published, _, err := r.Publish(ctx, server)
	if err != nil {
		return err
	}
	host := transport.NewHost()
	handler := ax.handler(r, name, host)
	endpoints, collisions, err := r.deployPublished(host, published)
	if err != nil {
		return err
	}
	t.collisions[si] = collisions

	nc, ncol, nt := len(r.clients), len(ax.columns), ax.tallies
	codes := make([]outcome, len(published)*nc*ncol)
	tallies := make([]int, len(published)*nc*nt)
	service := func(pi int) ([]outcome, []int) {
		return codes[pi*nc*ncol : (pi+1)*nc*ncol], tallies[pi*nc*nt : (pi+1)*nc*nt]
	}

	// Resume: replay journaled services into their slots. A replayed
	// service has no pending rows, which keeps it out of the feed.
	pending := make([]atomic.Int32, len(published))
	for pi := range published {
		rec, ok := aj.record(ax.trace(name, published[pi].Class))
		if !ok {
			pending[pi].Store(int32(nc))
			continue
		}
		c, n := service(pi)
		if err := r.replay(ax, rec, c, n); err != nil {
			return err
		}
		aj.resumed.Inc()
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				pi, ci := idx/nc, idx%nc
				x := wireCall{ctx: ctx, r: r, handler: handler, client: r.clients[ci], svc: &published[pi]}
				x.ep = endpoints[x.svc.Class]
				op, ok := invocable(x.client, x.svc, x.ep, r.cfg.reparse)
				x.op, x.blocked = op, !ok
				ax.exchange(&x, codes[idx*ncol:(idx+1)*ncol], tallies[idx*nt:(idx+1)*nt])
				// The worker finishing a service's last row journals it:
				// the atomic counter orders the other rows' slot writes
				// before this read. A cancellation may have cut a retry
				// or an exchange short, so nothing after it journals.
				if pending[pi].Add(-1) == 0 && ctx.Err() == nil {
					c, n := service(pi)
					aj.append(r.axisRecord(ax, name, x.svc.Class, c, n))
				}
			}
		}()
	}
feed:
	for pi := range published {
		if pending[pi].Load() == 0 {
			continue
		}
		for ci := 0; ci < nc; ci++ {
			select {
			case <-ctx.Done():
				break feed
			case jobs <- pi*nc + ci:
			}
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Serial fixed-order fold: counters land here, inside the
	// determinism contract, never in workers.
	t.fold(si, codes, tallies)
	sentinel := ax.sentinel(r.cfg.Shard, name)
	if _, done := aj.record(sentinel); !done {
		// The stage completed: the sentinel is what merge completeness
		// keys on, and it carries the stage's collision count (the one
		// fold input not reconstructible per service).
		aj.append(journal.Record{Trace: sentinel, Server: name, Mode: ax.name + "-complete", Collisions: collisions})
	}
	return nil
}

// axisRecord encodes one fully exchanged service: every client's row,
// in roster and column order.
func (r *Runner) axisRecord(ax *wireAxis, server, class string, codes []outcome, tallies []int) journal.Record {
	ncol, nt := len(ax.columns), ax.tallies
	rows := make([]journal.OutcomeRow, len(r.clients))
	for ci, c := range r.clients {
		outs := make([]string, ncol)
		for col := range outs {
			outs[col] = ax.codes[codes[ci*ncol+col]]
		}
		rows[ci] = journal.OutcomeRow{Client: c.Name(), Outcomes: outs}
		if nt > 0 {
			rows[ci].Tallies = append([]int(nil), tallies[ci*nt:(ci+1)*nt]...)
		}
	}
	return journal.Record{Trace: ax.trace(server, class), Server: server, Class: class,
		Mode: ax.name, Published: true, Rows: rows}
}

// replay decodes one journaled service into its slots, validating it
// against the roster and the column catalog. Both are
// fingerprint-pinned, so a mismatch means a corrupted store, not a
// configuration drift.
func (r *Runner) replay(ax *wireAxis, rec *journal.Record, codes []outcome, tallies []int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("campaign: journal record %s: "+format, append([]any{rec.Trace}, args...)...)
	}
	if rec.Mode != ax.name {
		return fail("mode %q is not a %s cell", rec.Mode, ax.name)
	}
	if len(rec.Rows) != len(r.clients) {
		return fail("%d client rows, roster has %d", len(rec.Rows), len(r.clients))
	}
	ncol, nt := len(ax.columns), ax.tallies
	for ci, row := range rec.Rows {
		if want := r.clients[ci].Name(); row.Client != want {
			return fail("row %d is for client %q, roster has %q", ci, row.Client, want)
		}
		if len(row.Outcomes) != ncol || len(row.Tallies) != nt {
			return fail("client %q has %d outcomes and %d tallies, the axis has %d columns and %d tallies",
				row.Client, len(row.Outcomes), len(row.Tallies), ncol, nt)
		}
		for col, s := range row.Outcomes {
			o, ok := ax.parse(s)
			if !ok {
				return fail("unknown %s outcome %q", ax.name, s)
			}
			codes[ci*ncol+col] = o
		}
		copy(tallies[ci*nt:], row.Tallies)
	}
	return nil
}

// axisJournal is one axis run's open journal. Appends are
// mutex-serialized (one record per service, so contention is
// negligible) and durable before they return.
type axisJournal struct {
	mu     sync.Mutex
	j      *journal.Journal
	err    error
	loaded map[string]*journal.Record

	resumed  *obs.Counter // journal.cells.resumed
	executed *obs.Counter // journal.cells.executed
}

// axisFingerprint pins an axis journal to the campaign configuration
// and to the axis's column catalog, so a changed catalog is refused
// with journal.ErrFingerprint instead of failing replay.
func (r *Runner) axisFingerprint(ax *wireAxis) string {
	return obs.TraceID(append([]string{r.checkpointFingerprint(), "axis=" + ax.name}, ax.columns...)...)
}

// openAxisJournal opens the axis journal under the WithCheckpoint
// directory (a no-op without one).
func (r *Runner) openAxisJournal(ax *wireAxis) (*axisJournal, error) {
	shard, err := r.shardMeta()
	if err != nil {
		return nil, err
	}
	if r.cfg.Checkpoint == "" {
		if r.cfg.Resume {
			return nil, fmt.Errorf("campaign: Resume requires a Checkpoint directory")
		}
		return nil, nil
	}
	j, err := journal.Open(filepath.Join(r.cfg.Checkpoint, ax.name),
		journal.Meta{Fingerprint: r.axisFingerprint(ax), Shard: shard}, r.cfg.Resume)
	if err != nil {
		return nil, err
	}
	j.AfterAppend = r.cfg.checkpointProbe
	aj := &axisJournal{
		j:        j,
		resumed:  r.obs.Counter("journal.cells.resumed"),
		executed: r.obs.Counter("journal.cells.executed"),
	}
	if r.cfg.Resume {
		aj.loaded = j.Loaded()
	}
	return aj, nil
}

// append records one completed service durably; nil-safe.
func (aj *axisJournal) append(rec journal.Record) {
	if aj == nil {
		return
	}
	aj.executed.Inc()
	aj.mu.Lock()
	defer aj.mu.Unlock()
	if aj.err == nil {
		aj.err = aj.j.Append(rec)
	}
}

// close flushes and closes the journal; nil-safe.
func (aj *axisJournal) close() error {
	if aj == nil {
		return nil
	}
	err := aj.err
	if cerr := aj.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// record looks up a loaded journal record; nil-safe.
func (aj *axisJournal) record(trace string) (*journal.Record, bool) {
	if aj == nil {
		return nil, false
	}
	rec, ok := aj.loaded[trace]
	return rec, ok
}

// mergeAxis folds completed shard journals of one axis (the
// <dir>/<axis> stores) into one tally. It exchanges nothing: every
// service replays from its record. Each shard must hold its completion
// sentinel for every server stage, and the path collisions sum the
// shards' deploy-time counts.
func (r *Runner) mergeAxis(ctx context.Context, ax *wireAxis, dirs []string) (*wireTally, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("campaign: merge needs at least one shard journal directory")
	}
	if r.cfg.Shard.enabled() {
		return nil, fmt.Errorf("campaign: the merge coordinator runs unsharded (drop shard %s)", r.cfg.Shard)
	}
	if r.cfg.Checkpoint != "" || r.cfg.Resume {
		return nil, fmt.Errorf("campaign: merge reads shard journals; it does not take its own Checkpoint/Resume")
	}

	fp, leaseFP := r.axisFingerprint(ax), r.checkpointFingerprint()
	metas := make([]*journal.Meta, 0, len(dirs))
	seen := make(map[string]journal.Record)
	var recs []journal.Record
	for _, dir := range dirs {
		adir := filepath.Join(dir, ax.name)
		meta, shardRecs, err := journal.Load(adir)
		if err != nil {
			return nil, err
		}
		if meta.Fingerprint != fp {
			return nil, fmt.Errorf("%w: %s (merge must be invoked with the exact configuration the shards ran)",
				journal.ErrFingerprint, adir)
		}
		spec := ShardSpec{}
		if sh := meta.Shard; sh != nil {
			spec = ShardSpec{Index: sh.Index, Count: sh.Count}
			if sh.Lease != "" && sh.Lease != shardLease(leaseFP, sh.Index, sh.Count) {
				return nil, fmt.Errorf("campaign: %s: lease %s was not issued for shard %d/%d of this campaign",
					adir, sh.Lease, sh.Index, sh.Count)
			}
		}
		for _, rec := range shardRecs {
			if prev, dup := seen[rec.Trace]; dup {
				return nil, fmt.Errorf("campaign: shard journals overlap: cell %s (%s on %s) journaled twice",
					rec.Trace, prev.Class, prev.Server)
			}
			seen[rec.Trace] = rec
		}
		recs = append(recs, shardRecs...)
		// Completeness: a server stage appends its sentinel only after
		// every service of the stage is journaled, so the sentinel set
		// is the completion proof.
		for _, server := range r.servers {
			if _, ok := seen[ax.sentinel(spec, server.Name())]; !ok {
				return nil, fmt.Errorf("campaign: %s holds no completed %s stage — resume the shard to completion first",
					adir, server.Name())
			}
		}
		metas = append(metas, meta)
	}
	if err := journal.CheckShards(metas); err != nil {
		return nil, err
	}

	t := r.newWireTally(ax)
	roster := make(map[string]int, len(t.servers))
	for si, name := range t.servers {
		roster[name] = si
	}
	resumed := r.obs.Counter("journal.cells.resumed")
	codes := make([]outcome, len(r.clients)*len(ax.columns))
	tallies := make([]int, len(r.clients)*ax.tallies)
	for i := range recs {
		rec := &recs[i]
		si, ok := roster[rec.Server]
		if !ok {
			return nil, fmt.Errorf("campaign: journal record %s is for server %q, not in this roster", rec.Trace, rec.Server)
		}
		if rec.Mode == ax.name+"-complete" {
			t.collisions[si] += rec.Collisions
			continue
		}
		if err := r.replay(ax, rec, codes, tallies); err != nil {
			return nil, err
		}
		t.fold(si, codes, tallies)
		resumed.Inc()
	}
	return t, nil
}

// deployPublished deploys every invocable service once, reusing the
// shared document analysis for the endpoint derivation (the reparse
// test hook restores the per-deploy wsdl.Unmarshal the pre-cache
// runner did).
// Zero-operation documents are rejected by the runtime exactly as
// FromWSDL defines. A path collision between two services is resolved
// with a deterministic numeric suffix and counted, so the summary can
// surface it instead of silently dropping an endpoint.
func (r *Runner) deployPublished(host *transport.Host,
	published []PublishedService) (map[string]*transport.Endpoint, int, error) {
	endpoints := make(map[string]*transport.Endpoint, len(published)) // class → endpoint
	collisions := 0
	for i := range published {
		var doc *wsdl.Definitions
		if r.cfg.reparse {
			d, err := wsdl.Unmarshal(published[i].Doc)
			if err != nil {
				return nil, 0, fmt.Errorf("reparse %s: %w", published[i].Class, err)
			}
			doc = d
		} else {
			a, err := published[i].Analysis()
			if err != nil {
				return nil, 0, fmt.Errorf("analyze %s: %w", published[i].Class, err)
			}
			doc = a.Definitions()
		}
		ep, err := transport.FromWSDL(doc)
		if err != nil {
			continue // zero-operation services stay undeployed
		}
		if err := host.Deploy(ep); err != nil {
			collisions++
			base := ep.Path
			for n := 2; ; n++ {
				ep.Path = fmt.Sprintf("%s-%d", base, n)
				if host.Deploy(ep) == nil {
					break
				}
			}
		}
		endpoints[published[i].Class] = ep
	}
	return endpoints, collisions, nil
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

// invocable runs steps 2–3 for one combination through the shared
// analysis (the reparse test hook selects the byte path, matching the
// static campaign) and returns the operation to invoke. ok is false for
// blocked combinations; an empty op marks the silent no-operation
// stubs.
func invocable(client framework.ClientFramework, svc *PublishedService,
	ep *transport.Endpoint, reparse bool) (op string, ok bool) {
	gen := generationFor(client, svc, reparse)
	if gen.Failed() || gen.Unit == nil {
		return "", false
	}
	if diags := client.Verify(gen.Unit); len(artifact.Errors(diags)) > 0 {
		return "", false
	}
	port := gen.Unit.PortClass()
	if port == nil || len(port.Methods) == 0 || ep == nil {
		return "", true
	}
	return port.Methods[0].Name, true
}
