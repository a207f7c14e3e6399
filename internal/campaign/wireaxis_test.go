package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wsinterop/internal/journal"
	"wsinterop/internal/journal/journaltest"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/transport"
	"wsinterop/internal/wsdl"
)

// wireModes drives the three wire axes through their public entry
// points, for the contract suite below.
var wireModes = []struct {
	axis *Axis
	// limit is the equivalence scale (full, -short); the fault matrix
	// exchanges eleven times per row, so it runs smaller.
	limit, short int
	run          func(*Runner, context.Context) (any, error)
	// merged picks the mode's result out of a Merge, and zeroes its
	// path collisions in both results: they sum each shard's deploy,
	// so a merge may count fewer than a single process.
	merged func(m *Merged) any
	zero   func(res any)
}{
	{commAxis, 200, 60, func(r *Runner, ctx context.Context) (any, error) { return r.RunCommunication(ctx) },
		func(m *Merged) any { return m.Wire["comm"] }, func(res any) {
			for _, s := range res.(*CommResult).Servers {
				s.PathCollisions = 0
			}
		}},
	{robustAxis, 60, 20, func(r *Runner, ctx context.Context) (any, error) { return r.RunRobustness(ctx) },
		func(m *Merged) any { return &RobustResult{m.Wire["robust"].(*Matrix)} },
		func(res any) { clear(res.(*RobustResult).Collisions) }},
	{versionsAxis, 200, 60, func(r *Runner, ctx context.Context) (any, error) { return r.RunVersions(ctx) },
		func(m *Merged) any { return &VersionResult{m.Wire["versions"].(*Matrix)} },
		func(res any) { clear(res.(*VersionResult).Collisions) }},
}

// requireWireReference is the per-cell oracle of one wire axis, at the
// contract suite's limit: it runs the axis, then checks every cell's
// inputs besides its exchange against the test-side reference. Each
// verdict the executor reads (r.verdict, served from the shape memo)
// must equal the code the per-class byte path computes (referenceCell),
// executed bit aside; and every deployment, built from the typed
// document the server emits, must equal the one built from the
// published bytes parsed back. A wire row is a function of its verdict,
// its deployment and its exchange, so the two checks cover the matrix.
func requireWireReference(t *testing.T, ax *Axis) {
	t.Helper()
	limit := 0
	for _, m := range wireModes {
		if m.axis == ax {
			limit = m.limit
			if testing.Short() {
				limit = m.short
			}
		}
	}
	ctx := context.Background()
	r := newRunner(config{Limit: limit, Workers: 4})
	if _, err := r.RunWire(ctx, ax); err != nil {
		t.Fatalf("%s run: %v", ax.name, err)
	}
	ref := newRunner(config{Limit: limit})
	nc := len(r.clients)
	for si, server := range r.servers {
		sp, err := r.planFor(server)
		if err != nil {
			t.Fatal(err)
		}
		published, _, err := r.Publish(ctx, server)
		if err != nil {
			t.Fatalf("publish on %s: %v", server.Name(), err)
		}
		pi := 0
		for _, def := range sp.defs {
			want := make([]outcomeCode, nc)
			s := ref.referenceCell(ref.servers[si], def, true, want)
			if s.err != nil {
				t.Fatalf("reference publish of %s on %s: %v", def.Parameter.Name, server.Name(), s.err)
			}
			if !s.ok {
				continue
			}
			if pi == len(published) || published[pi].Class != def.Parameter.Name {
				t.Fatalf("%s: %s published on the reference path only", server.Name(), def.Parameter.Name)
			}
			for ci := range want {
				if got := r.verdict(&published[pi], ci) &^ codeExecuted; got != want[ci]&^codeExecuted {
					t.Errorf("%s %s × %s: verdict %06b, reference %06b", server.Name(), def.Parameter.Name,
						r.clients[ci].Name(), got, want[ci]&^codeExecuted)
				}
			}
			pi++
		}
		if pi != len(published) {
			t.Fatalf("%s: published %d services, the reference path %d", server.Name(), len(published), pi)
		}

		got, _, err := r.deployPublished(transport.NewHost(), server, sp.defs, published)
		if err != nil {
			t.Fatalf("deploy on %s: %v", server.Name(), err)
		}
		host := transport.NewHost()
		for i := range published {
			doc, err := wsdl.Unmarshal(published[i].Doc)
			if err != nil {
				t.Fatalf("parse %s on %s: %v", published[i].Class, server.Name(), err)
			}
			var want deployment
			deploy(host, doc, &published[i], &want)
			if !sameDeployment(got[i], want) {
				t.Errorf("%s %s: deployment from the typed document differs from the parsed bytes' one",
					server.Name(), published[i].Class)
			}
		}
	}
}

// sameDeployment reports whether two deployments of one service match:
// the same endpoint, operation and echo request, with the endpoints'
// descriptions compared by the bytes ?wsdl serves. A parsed document
// spells out defaults that an emitted one leaves zero (a global
// element's occurrence bounds), so the typed forms may differ where
// the rendered ones cannot.
func sameDeployment(a, b deployment) bool {
	if (a.ep == nil) != (b.ep == nil) {
		return false
	}
	if a.ep != nil {
		ra, errA := wsdl.Marshal(a.ep.Definitions)
		rb, errB := wsdl.Marshal(b.ep.Definitions)
		if errA != nil || errB != nil || !bytes.Equal(ra, rb) {
			return false
		}
		ea, eb := *a.ep, *b.ep
		ea.Definitions, eb.Definitions = nil, nil
		a.ep, b.ep = &ea, &eb
	}
	return reflect.DeepEqual(a, b)
}

// cellOracle is what a wire axis returns and journals when every
// (service × client) row exchanges on its own.
type cellOracle struct {
	res  WireResult
	recs map[journal.Key]journal.Record
	// reg is the run's registry.
	reg *obs.Registry
	// attempts counts the exchanges the rows made and exchanged the
	// rows that reached the wire: the transport.attempts and exchanged
	// cells of a run with no memo.
	attempts, exchanged int
	// clashes names each row whose traffic differs from its profile's
	// first row on the same service.
	clashes []string
}

// wireOracle is the per-cell oracle of one wire axis under cfg
// (unsharded or one shard). It runs the axis's exchange for every row
// — no profile, no representative, no copy — serially, on a fresh
// stage host per server, and folds the rows and builds the journal
// records as the executor does. Every row's traffic passes a wireTap,
// so the oracle also guards the profiles: a profile is sound only if
// its clients put the same bytes on the wire.
func wireOracle(t *testing.T, cfg config, ax *Axis) *cellOracle {
	t.Helper()
	return cellOracleRun(t, cfg, ax, false)
}

// netOracle is wireOracle over real HTTP. Each server stage gets one
// loopback httptest.Server, reached through its keep-alive transport,
// and every row's middleware — its sniffer, armed injector or version
// wire — becomes the server's handler before the row sends
// (wireCall.loopback), so the socket serves that row's own chain. A
// difference from wireOracle is behaviour the in-process bridge does
// not preserve.
func netOracle(t *testing.T, cfg config, ax *Axis) *cellOracle {
	t.Helper()
	return cellOracleRun(t, cfg, ax, true)
}

// cellOracleRun runs wireOracle, in process or, with overHTTP, as
// netOracle.
func cellOracleRun(t *testing.T, cfg config, ax *Axis, overHTTP bool) *cellOracle {
	t.Helper()
	ctx := context.Background()
	reg := obs.NewRegistry()
	cfg.Obs, cfg.Workers, cfg.Checkpoint, cfg.Resume = reg, 1, "", false
	r := newRunner(cfg)
	m := r.newMatrix(ax)
	o := &cellOracle{recs: make(map[journal.Key]journal.Record), reg: reg}
	nc, ncol, nt := len(r.clients), len(ax.columns), ax.tallies
	for si, server := range r.servers {
		sp, err := r.planFor(server)
		if err != nil {
			t.Fatal(err)
		}
		published, _, err := r.Publish(ctx, server)
		if err != nil {
			t.Fatalf("publish on %s: %v", server.Name(), err)
		}
		host := transport.NewHost()
		if ax.version != nil {
			host.SetVersionPolicy(ax.version(server.Name()))
		}
		bridge := transport.NewLocalBridge(host).WithObs(r.obs)
		var srv *httptest.Server
		var loopback func(http.Handler) *transport.Client
		if overHTTP {
			serving := new(swapHandler)
			srv = httptest.NewServer(serving)
			t.Cleanup(srv.Close)
			netClient := transport.NewClient(srv.Client()).WithObs(r.obs)
			loopback = func(h http.Handler) *transport.Client {
				serving.set(h)
				return netClient
			}
		}
		deployed, collisions, err := r.deployPublished(host, server, sp.defs, published)
		if err != nil {
			t.Fatalf("deploy on %s: %v", server.Name(), err)
		}
		m.Collisions[si] = collisions
		codes := make([]outcome, len(published)*nc*ncol)
		tallies := make([]int, len(published)*nc*nt)
		for pi := range published {
			c, n := codes[pi*nc*ncol:(pi+1)*nc*ncol], tallies[pi*nc*nt:(pi+1)*nc*nt]
			first := make(map[int]string) // profile → its first exchanging row's traffic
			for ci, client := range r.clients {
				code := r.verdict(&published[pi], ci)
				tap := &wireTap{next: host}
				x := wireCall{ctx: ctx, r: r, host: tap, bridge: bridge.WithHandler(tap), client: client, svc: &published[pi]}
				x.blocked = code.errorAnywhere() || code&codeCompileRan == 0
				if !x.blocked {
					x.deployment = deployed[pi]
				}
				if overHTTP {
					// No row may reach the host in process, and every row
					// targets its endpoint's URL on the loopback server.
					x.bridge, x.loopback = nil, loopback
					if x.ep != nil {
						ep := *x.ep
						ep.Path = srv.URL + ep.Path
						x.ep = &ep
					}
				}
				ax.exchange(&x, c[ci*ncol:(ci+1)*ncol], n[ci*nt:(ci+1)*nt])
				if tap.log.Len() == 0 {
					continue
				}
				o.exchanged++
				traffic, p := tap.log.String(), ax.profileOf(client.Name())
				if want, ok := first[p]; !ok {
					first[p] = traffic
				} else if traffic != want {
					o.clashes = append(o.clashes, fmt.Sprintf("%s %s: %s's traffic differs from its profile's first row",
						server.Name(), published[pi].Class, client.Name()))
				}
			}
			rec := axisRecord(ax, server.Name(), published[pi].Class, c, n)
			o.recs[rec.Key()] = rec
		}
		if srv != nil {
			// Close waits for every handler the stage started, so the
			// server-side counters are final.
			srv.Close()
		}
		fold(m, r.met.axisCounters(ax), si, codes, tallies)
		o.recs[journal.Key{Server: server.Name()}] = journal.Record{Server: server.Name(), Mode: ax.complete(), Collisions: collisions}
	}
	o.res, o.attempts = ax.result(m), int(reg.Counter("transport.attempts").Value())
	return o
}

// swapHandler serves with the handler set last: a loopback server's
// handler, which netOracle points at each row's middleware in turn.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// wireTap sits between a row's middleware and the stage host and logs
// every request and response that passes: the fields that steer an
// exchange and the bytes.
type wireTap struct {
	next http.Handler
	log  bytes.Buffer
}

func (tap *wireTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	fmt.Fprintf(&tap.log, "> %s %q %q\n%s\n", r.URL, r.Header.Get("Content-Type"), r.Header.Get("SOAPAction"), body)
	rec := transport.NewCapture(0)
	tap.next.ServeHTTP(rec, r)
	status, ctype := rec.Status(), rec.Header().Get("Content-Type")
	fmt.Fprintf(&tap.log, "< %d %q\n%s\n", status, ctype, rec.Body())
	rec.WriteHeaderTo(w, status, ctype)
	rec.Release()
	_, _ = w.Write(rec.Body())
}

// journaled loads an axis's journal under dir, keyed as the oracle
// keys its records.
func journaled(t *testing.T, ax *Axis, dir string) map[journal.Key]journal.Record {
	t.Helper()
	_, recs, err := journal.Load(ax.dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[journal.Key]journal.Record, len(recs))
	for _, rec := range recs {
		if _, dup := out[rec.Key()]; dup {
			t.Errorf("%s journal holds %v twice", ax.name, rec.Key())
		}
		if len(rec.Tallies) == 0 {
			rec.Tallies = nil
		}
		out[rec.Key()] = rec
	}
	return out
}

// wireRun is one production route to a wire result: the result, the
// journals the route wrote with the shard each ran, whether it merged
// them, and the registry of the fresh route's run.
type wireRun struct {
	label    string
	res      WireResult
	journals map[string]ShardSpec
	merge    bool
	reg      *obs.Registry
}

// wireRuns runs ax at limit and workers the three ways production
// reaches a result: fresh and checkpointed; cut at half its journal
// and resumed; and as two checkpointed shards, merged.
func wireRuns(t *testing.T, ax *Axis, limit, workers int) []wireRun {
	t.Helper()
	ctx := context.Background()
	run := func(ctx context.Context, cfg config) (WireResult, error) { return newRunner(cfg).RunWire(ctx, ax) }
	mustRun := func(cfg config) WireResult {
		t.Helper()
		res, err := run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s run at %d workers: %v", ax.name, workers, err)
		}
		return res
	}

	dir := t.TempDir()
	fresh := wireRun{label: fmt.Sprintf("fresh, workers %d", workers), journals: map[string]ShardSpec{dir: {}},
		reg: obs.NewRegistry()}
	fresh.res = mustRun(config{Limit: limit, Workers: workers, Checkpoint: dir, Obs: fresh.reg})
	_, recs, err := journal.Load(ax.dir(dir))
	if err != nil {
		t.Fatal(err)
	}

	dir = t.TempDir()
	cut := len(recs) / 2
	killCtx, cancel := context.WithCancel(ctx)
	cfg := config{Limit: limit, Workers: workers, Checkpoint: dir}
	cfg.checkpointProbe = func(appended int) {
		if appended == cut {
			cancel()
		}
	}
	if _, err := run(killCtx, cfg); err == nil {
		t.Errorf("%s at %d workers: the run finished past its cut at record %d", ax.name, workers, cut)
	}
	cancel()
	resumed := wireRun{label: fmt.Sprintf("resumed, workers %d", workers), journals: map[string]ShardSpec{dir: {}},
		res: mustRun(config{Limit: limit, Workers: workers, Checkpoint: dir, Resume: true})}

	merged := wireRun{label: fmt.Sprintf("2-shard merge, workers %d", workers), journals: map[string]ShardSpec{}, merge: true}
	var dirs []string
	for i := range 2 {
		shard := ShardSpec{Index: i, Count: 2}
		dir := t.TempDir()
		mustRun(config{Limit: limit, Workers: workers, Checkpoint: dir, Shard: shard})
		merged.journals[dir] = shard
		dirs = append(dirs, dir)
	}
	m, err := newRunner(config{Limit: limit, Workers: workers}).Merge(ctx, dirs)
	if err != nil {
		t.Fatalf("%s merge at %d workers: %v", ax.name, workers, err)
	}
	merged.res = m.Wire[ax.name]
	return []wireRun{fresh, resumed, merged}
}

// TestWireCellOracle holds each wire axis's memoized executor to the
// per-cell oracle (wireOracle) at workers 1 and 8: a fresh
// checkpointed run, a run cut mid-journal and resumed, and a 2-shard
// merge return the oracle's result (a merge's path collisions aside),
// and each journal holds the oracle's records for its shard. The fresh
// run exchanges less than the oracle, comm's attempts and memoized
// cells add up to the oracle's exchanged cells, and no profile's
// clients clash.
func TestWireCellOracle(t *testing.T) {
	for _, m := range wireModes {
		t.Run(m.axis.name, func(t *testing.T) {
			limit := m.limit
			if testing.Short() {
				limit = m.short
			}
			oracles := make(map[ShardSpec]*cellOracle)
			oracle := func(shard ShardSpec) *cellOracle {
				if oracles[shard] == nil {
					oracles[shard] = wireOracle(t, config{Limit: limit, Shard: shard}, m.axis)
				}
				return oracles[shard]
			}
			full := oracle(ShardSpec{})
			if len(full.clashes) > 0 {
				t.Errorf("%d clashing rows, e.g. %s", len(full.clashes), full.clashes[0])
			}
			// zero clears a result's path collisions through the mode's
			// entry-point type: a merge sums each shard's deploy.
			zero := func(res WireResult) { m.zero(m.merged(&Merged{Wire: map[string]WireResult{m.axis.name: res}})) }
			var zeroed WireResult
			for _, workers := range []int{1, 8} {
				for _, run := range wireRuns(t, m.axis, limit, workers) {
					want := full.res
					if run.merge {
						if zeroed == nil {
							zeroed = wireOracle(t, config{Limit: limit}, m.axis).res
							zero(zeroed)
						}
						want = zeroed
						zero(run.res)
					}
					gotBytes, _ := json.Marshal(run.res)
					wantBytes, _ := json.Marshal(want)
					if string(gotBytes) != string(wantBytes) || !reflect.DeepEqual(run.res, want) {
						t.Errorf("%s: result differs from the per-cell oracle:\ngot:    %s\noracle: %s", run.label, gotBytes, wantBytes)
					}
					for dir, shard := range run.journals {
						got := journaled(t, m.axis, dir)
						want := oracle(shard).recs
						for k, rec := range want {
							if g, ok := got[k]; !ok || !reflect.DeepEqual(g, rec) {
								t.Errorf("%s, shard %s: journaled %v = %+v, oracle %+v", run.label, shard, k, g, rec)
							}
						}
						if len(got) != len(want) {
							t.Errorf("%s, shard %s: %d journal records, oracle %d", run.label, shard, len(got), len(want))
						}
					}
					if run.reg == nil {
						continue
					}
					attempts := run.reg.Counter("transport.attempts").Value()
					memoized := run.reg.Counter("campaign." + m.axis.name + ".memoized").Value()
					if attempts >= int64(full.attempts) || memoized == 0 {
						t.Errorf("%s: %d attempts and %d memoized cells, the per-cell oracle %d attempts",
							run.label, attempts, memoized, full.attempts)
					}
					if m.axis == commAxis && int(attempts+memoized) != full.exchanged {
						t.Errorf("%s: %d attempts + %d memoized cells, the oracle exchanged %d cells",
							run.label, attempts, memoized, full.exchanged)
					}
				}
			}
		})
	}
}

// TestNetOracle holds the in-process bridge to real HTTP. On each wire
// axis, at the contract suite's limits, netOracle — every row's
// exchange over a loopback socket — must return wireOracle's result
// and journal records, and every transport.*, sniffer.* and
// faultinject.* counter must read the same. TestWireCellOracle ties
// wireOracle to the production executor, so production's in-process
// matrices are what the network returns.
func TestNetOracle(t *testing.T) {
	for _, m := range wireModes {
		t.Run(m.axis.name, func(t *testing.T) {
			limit := m.limit
			if testing.Short() {
				limit = m.short
			}
			want := wireOracle(t, config{Limit: limit}, m.axis)
			got := netOracle(t, config{Limit: limit}, m.axis)
			gotBytes, _ := json.Marshal(got.res)
			wantBytes, _ := json.Marshal(want.res)
			if string(gotBytes) != string(wantBytes) || !reflect.DeepEqual(got.res, want.res) {
				t.Errorf("result over HTTP differs from the in-process oracle:\nhttp:       %s\nin process: %s", gotBytes, wantBytes)
			}
			for k, rec := range want.recs {
				if g, ok := got.recs[k]; !ok || !reflect.DeepEqual(g, rec) {
					t.Errorf("record %v over HTTP = %+v, in process %+v", k, g, rec)
				}
			}
			if len(got.recs) != len(want.recs) {
				t.Errorf("%d records over HTTP, %d in process", len(got.recs), len(want.recs))
			}
			if got.exchanged != want.exchanged || len(got.clashes) != len(want.clashes) {
				t.Errorf("%d exchanged rows and %d clashes over HTTP, %d and %d in process",
					got.exchanged, len(got.clashes), want.exchanged, len(want.clashes))
			}
			gotN, wantN := wireCounters(got.reg), wireCounters(want.reg)
			for name := range wantN {
				if _, ok := gotN[name]; !ok {
					gotN[name] = 0
				}
			}
			for name, n := range gotN {
				if n != wantN[name] {
					t.Errorf("%s = %d over HTTP, %d in process", name, n, wantN[name])
				}
			}
			if wantN["transport.attempts"] == 0 {
				t.Error("the oracles exchanged nothing")
			}
		})
	}
}

// wireCounters returns a registry's transport.*, sniffer.* and
// faultinject.* counters by name.
func wireCounters(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range reg.Snapshot().Counters {
		for _, prefix := range []string{"transport.", "sniffer.", "faultinject."} {
			if strings.HasPrefix(c.Name, prefix) {
				out[c.Name] = c.Value
			}
		}
	}
	return out
}

// TestWireProfileGuard shows the oracle's profile guard bites: an axis
// whose rows echo the client's name puts client-dependent bytes on
// the wire, so it clashes while its roster shares one profile and is
// clean once every client declares its own.
func TestWireProfileGuard(t *testing.T) {
	named := *commAxis
	named.exchange = func(x *wireCall, row []outcome, _ []int) {
		row[0] = commBlocked
		if x.blocked || x.op == "" {
			return
		}
		req := *x.req
		req.Fields = maps.Clone(x.req.Fields)
		req.Fields[x.probe] = x.client.Name()
		row[0] = commFault
		if _, err := x.bridge.Invoke(x.ctx, x.ep.Path, &req); err == nil {
			row[0] = commOK
		}
	}
	if o := wireOracle(t, config{Limit: 6}, &named); len(o.clashes) == 0 || o.exchanged == 0 {
		t.Errorf("one profile over client-named requests: %d clashes in %d exchanged rows, want some",
			len(o.clashes), o.exchanged)
	}
	roster := make(map[string]int)
	for i, c := range newRunner(config{}).clients {
		roster[c.Name()] = i
	}
	named.profile = func(client string) int { return roster[client] }
	if o := wireOracle(t, config{Limit: 6}, &named); len(o.clashes) != 0 {
		t.Errorf("a profile per client still clashes: %s", o.clashes[0])
	}
}

// TestCommExchangeCount pins the memo's exchange count on the
// communication axis at -limit 300: one exchange per service that has
// an operation and an unblocked client, and every other unblocked
// client's cell memoized, so attempts and memoized cells add up to the
// 8,769 exchanges a per-cell run makes.
func TestCommExchangeCount(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	r := newRunner(config{Limit: 300, Workers: 4, Obs: reg})
	res, err := r.RunCommunication(ctx)
	if err != nil {
		t.Fatal(err)
	}
	services, cells := 0, 0
	for _, server := range r.servers {
		sp, err := r.planFor(server)
		if err != nil {
			t.Fatal(err)
		}
		published, _, err := r.Publish(ctx, server)
		if err != nil {
			t.Fatal(err)
		}
		deployed, _, err := r.deployPublished(transport.NewHost(), server, sp.defs, published)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range published {
			unblocked := 0
			for ci := range r.clients {
				if code := r.verdict(&published[pi], ci); !code.errorAnywhere() && code&codeCompileRan != 0 {
					unblocked++
				}
			}
			if deployed[pi].op != "" && unblocked > 0 {
				services++
				cells += unblocked
			}
		}
	}
	attempts := reg.Counter("transport.attempts").Value()
	memoized := reg.Counter("campaign.comm.memoized").Value()
	if attempts != int64(services) || services != 896 {
		t.Errorf("transport.attempts = %d, want one per exchanged service: %d (896 at -limit 300)", attempts, services)
	}
	if attempts+memoized != int64(cells) || cells != 8769 {
		t.Errorf("%d attempts + %d memoized cells, want the %d unblocked cells with an operation (8769 at -limit 300)",
			attempts, memoized, cells)
	}
	if n := res.Totals().Exchanges; n != cells {
		t.Errorf("the report's exchanges total %d, want %d", n, cells)
	}
}

// TestWireAxisContract is the shared contract of every wire mode:
//
//   - equivalence: worker count and scheduling never change a cell
//     (requireWireReference checks each cell's inputs against the
//     per-class reference);
//   - resume: interrupted at several journal append counts, a resumed
//     run returns the clean run's result byte for byte (for
//     communication, with the sniffer's exchange and violation
//     counts), and resuming a finished journal exchanges nothing;
//   - refusal: a journal written under another limit, under another
//     column catalog, or in the pre-executor layout (the bare campaign
//     fingerprint) is refused with journal.ErrFingerprint;
//   - merge: 2 and 3 shard journals, written at 1 and 8 workers, merge
//     into the single-process result (path collisions aside), and a
//     drifted configuration, a shard given twice, a missing stage
//     sentinel and a version-2 store are refused.
func TestWireAxisContract(t *testing.T) {
	for _, m := range wireModes {
		run := func(t *testing.T, cfg config, ctx context.Context) (any, []byte, error) {
			t.Helper()
			res, err := m.run(newRunner(cfg), ctx)
			if err != nil {
				return nil, nil, err
			}
			data, merr := json.Marshal(res)
			if merr != nil {
				t.Fatalf("marshal %s result: %v", m.axis.name, merr)
			}
			return res, data, nil
		}
		mustRun := func(t *testing.T, cfg config) (any, []byte) {
			t.Helper()
			res, data, err := run(t, cfg, context.Background())
			if err != nil {
				t.Fatalf("%s run: %v", m.axis.name, err)
			}
			return res, data
		}

		t.Run(m.axis.name+"/equivalence", func(t *testing.T) {
			limit := m.limit
			if testing.Short() {
				limit = m.short
			}
			base, baseBytes := mustRun(t, config{Limit: limit, Workers: 4})
			for _, v := range []struct {
				label string
				cfg   config
			}{
				{"serial", config{Limit: limit, Workers: 1}},
				{"parallel", config{Limit: limit, Workers: 8}},
			} {
				got, gotBytes := mustRun(t, v.cfg)
				if string(gotBytes) != string(baseBytes) || !reflect.DeepEqual(got, base) {
					t.Errorf("%s result differs under %s execution", m.axis.name, v.label)
				}
			}
		})

		t.Run(m.axis.name+"/resume", func(t *testing.T) {
			limit := robustLimit(40)
			clean, cleanBytes := mustRun(t, config{Limit: limit, Workers: 4})
			for _, killAt := range []int{1, 5, -1} {
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				cfg := config{Limit: limit, Workers: 4, Checkpoint: dir}
				if killAt > 0 {
					cfg.checkpointProbe = func(appended int) {
						if appended == killAt {
							cancel()
						}
					}
				}
				_, _, err := run(t, cfg, ctx)
				cancel()
				if killAt < 0 && err != nil {
					t.Fatalf("uninterrupted checkpointed run: %v", err)
				}
				// A cancellation racing the end of the run may still
				// complete; either way the journal resumes below.

				reg := obs.NewRegistry()
				resumed, resumedBytes := mustRun(t, config{Limit: limit, Workers: 4, Checkpoint: dir, Resume: true, Obs: reg})
				if string(resumedBytes) != string(cleanBytes) || !reflect.DeepEqual(resumed, clean) {
					t.Errorf("resumed %s result (killAt=%d) differs from clean run", m.axis.name, killAt)
				}
				if killAt < 0 {
					if n := reg.Counter("journal.cells.executed").Value(); n != 0 {
						t.Errorf("resuming a finished %s journal executed %d services, want 0", m.axis.name, n)
					}
					if reg.Counter("journal.cells.resumed").Value() == 0 {
						t.Errorf("resuming a finished %s journal replayed nothing", m.axis.name)
					}
					// Finished stages replay from their sentinels: nothing
					// is described again, let alone deployed.
					for _, name := range []string{"campaign.publish.total", "campaign.wsi.checks"} {
						if n := reg.Counter(name).Value(); n != 0 {
							t.Errorf("resuming a finished %s journal: %s = %d, want 0", m.axis.name, name, n)
						}
					}
				}
			}
		})

		t.Run(m.axis.name+"/refusal", func(t *testing.T) {
			refused := func(t *testing.T, what string, err error) {
				t.Helper()
				if !errors.Is(err, journal.ErrFingerprint) || !strings.Contains(err.Error(), "different campaign configuration") {
					t.Errorf("%s: resume error = %v, want fingerprint refusal", what, err)
				}
			}
			const limit = 4
			dir := t.TempDir()
			mustRun(t, config{Limit: limit, Workers: 2, Checkpoint: dir})
			_, _, err := run(t, config{Limit: limit + 1, Workers: 2, Checkpoint: dir, Resume: true}, context.Background())
			refused(t, "drifted limit", err)

			// A changed column catalog is refused at open, before any
			// exchange could misread a row.
			drifted := *m.axis
			drifted.columns = append(append([]string(nil), m.axis.columns...), "added-column")
			_, err = newRunner(config{Limit: limit, Workers: 2, Checkpoint: dir, Resume: true}).
				runAxis(context.Background(), &drifted)
			refused(t, "changed catalog", err)

			// The pre-executor layout: a <checkpoint>/versions store whose
			// meta carries the bare campaign fingerprint.
			old := t.TempDir()
			r := newRunner(config{Limit: limit, Workers: 2})
			j, err := journal.Open(filepath.Join(old, m.axis.name),
				journal.Meta{Fingerprint: r.checkpointFingerprint()}, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(journal.Record{Server: "Metro", Class: "java.lang.Object",
				Mode: m.axis.name, Published: true, Codes: []byte{0}}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, err = run(t, config{Limit: limit, Workers: 2, Checkpoint: old, Resume: true}, context.Background())
			refused(t, "pre-executor layout", err)
		})

		t.Run(m.axis.name+"/merge", func(t *testing.T) {
			limit := m.short
			ctx := context.Background()
			shardDirs := func(t *testing.T, n, workers int) []string {
				t.Helper()
				dirs := make([]string, n)
				for i := range dirs {
					dirs[i] = t.TempDir()
					mustRun(t, config{Limit: limit, Workers: workers, Checkpoint: dirs[i],
						Shard: ShardSpec{Index: i, Count: n}})
				}
				return dirs
			}
			for _, n := range []int{2, 3} {
				for _, workers := range []int{1, 8} {
					want, _ := mustRun(t, config{Limit: limit, Workers: workers})
					reg := obs.NewRegistry()
					merged, err := newRunner(config{Limit: limit, Workers: workers, Obs: reg}).
						Merge(ctx, shardDirs(t, n, workers))
					if err != nil {
						t.Fatalf("merge %d shards at %d workers: %v", n, workers, err)
					}
					got := m.merged(merged)
					m.zero(got)
					m.zero(want)
					gotBytes, _ := json.Marshal(got)
					wantBytes, _ := json.Marshal(want)
					if string(gotBytes) != string(wantBytes) || !reflect.DeepEqual(got, want) {
						t.Errorf("%d shards at %d workers: merged %s result differs from the single process:\nmerged: %s\nsingle: %s",
							n, workers, m.axis.name, gotBytes, wantBytes)
					}
					if merged.Study != nil {
						t.Error("shards that journaled no study merged one")
					}
					if n := reg.Counter("journal.cells.executed").Value(); n != 0 {
						t.Errorf("the merge executed %d cells", n)
					}
				}
			}

			dirs := shardDirs(t, 2, 2)
			if _, err := newRunner(config{Limit: limit + 1}).Merge(ctx, dirs); !errors.Is(err, journal.ErrFingerprint) {
				t.Errorf("drifted configuration: err = %v, want journal.ErrFingerprint", err)
			}
			if _, err := newRunner(config{Limit: limit}).Merge(ctx, []string{dirs[0], dirs[0]}); err == nil ||
				!strings.Contains(err.Error(), "overlap") {
				t.Errorf("a shard given twice: err = %v, want an overlap refusal", err)
			}

			cut := shardDirs(t, 2, 2)
			ends := journaltest.FrameEnds(t, m.axis.dir(cut[1]))
			journaltest.KeepFrames(t, m.axis.dir(cut[1]), len(ends)-1) // the last stage's sentinel
			if _, err := newRunner(config{Limit: limit}).Merge(ctx, cut); err == nil ||
				!strings.Contains(err.Error(), "incomplete") {
				t.Errorf("a missing stage sentinel: err = %v, want an incompleteness refusal", err)
			}

			old := shardDirs(t, 2, 2)
			meta := filepath.Join(m.axis.dir(old[0]), "meta.json")
			data, err := os.ReadFile(meta)
			if err != nil {
				t.Fatal(err)
			}
			v3 := fmt.Sprintf(`"version":%d`, journal.Version)
			if !strings.Contains(string(data), v3) {
				t.Fatalf("meta.json has no %s: %s", v3, data)
			}
			if err := os.WriteFile(meta, []byte(strings.Replace(string(data), v3, `"version":2`, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := newRunner(config{Limit: limit}).Merge(ctx, old); !errors.Is(err, journal.ErrVersion) {
				t.Errorf("a version-2 store: err = %v, want journal.ErrVersion", err)
			}
		})
	}
}

// TestDeployServesPublishedBytes holds the stage host to the bytes it
// serves at ?wsdl. It deploys as a wire stage does — Publish's entry
// loop without bytes, then deployPublished — and sends GET <path>?wsdl
// to every endpoint through the host: the body must equal wsdl.Marshal
// of the typed document the endpoint was derived from, and the Doc
// that Publish returns for the class, memo clones included.
func TestDeployServesPublishedBytes(t *testing.T) {
	ctx := context.Background()
	r := newRunner(limitedConfig(60))
	served, clones, bare := 0, 0, 0
	for _, server := range r.servers {
		sp, err := r.planFor(server)
		if err != nil {
			t.Fatal(err)
		}
		staged, _, err := r.publish(ctx, server, false)
		if err != nil {
			t.Fatal(err)
		}
		host := transport.NewHost()
		deployed, _, err := r.deployPublished(host, server, sp.defs, staged)
		if err != nil {
			t.Fatal(err)
		}
		published, _, err := r.Publish(ctx, server)
		if err != nil {
			t.Fatal(err)
		}
		if len(published) != len(staged) {
			t.Fatalf("%s: Publish returned %d services, the stage's publish %d", server.Name(), len(published), len(staged))
		}
		defs := make(map[string]services.Definition, len(sp.defs))
		for _, def := range sp.defs {
			defs[def.Parameter.Name] = def
		}
		for i, d := range deployed {
			svc := &staged[i]
			if svc.Doc == nil {
				bare++
			}
			if d.ep == nil {
				continue
			}
			served++
			if svc.memo != nil && svc.memo.rep.Class != svc.Class {
				clones++
			}
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.URL.Path, req.URL.RawQuery = d.ep.Path, "wsdl"
			rec := httptest.NewRecorder()
			host.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("%s %s: GET ?wsdl status %d: %s", server.Name(), svc.Class, rec.Code, rec.Body.String())
				continue
			}
			doc, err := server.Publish(defs[svc.Class])
			if err != nil {
				t.Fatal(err)
			}
			want, err := wsdl.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) || !bytes.Equal(got, published[i].Doc) {
				t.Errorf("%s %s: ?wsdl serves %d bytes; wsdl.Marshal of the deployed document is %d bytes (equal: %v), Publish's Doc %d bytes (equal: %v)",
					server.Name(), svc.Class, len(got), len(want), bytes.Equal(got, want),
					len(published[i].Doc), bytes.Equal(got, published[i].Doc))
			}
		}
	}
	if served == 0 || clones == 0 || bare == 0 {
		t.Fatalf("served %d endpoints, %d of them memo clones, %d services published without bytes; want each > 0",
			served, clones, bare)
	}
}

// TestWireRowAllocs pins the allocations of one robust row (eleven
// faulted exchanges), one versions row (four scenarios) and one whole
// comm service job on a service deployed at -limit 2, so per-exchange
// or per-cell bookkeeping that nothing reads — a minted trace, a
// stage-wide response tap — cannot creep back into the rows.
func TestWireRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// Measured: 508 and 110. With a fault counter name built per fired
	// fault and errors.As targets per failed decode, the same rows took
	// 540 and 111; with the fault steered through request headers into
	// one stage-wide injector, unreleased middleware captures and one
	// errors.As chain per counter and per retry decision, 739 and 131;
	// with a trace minted per exchange, stamped on the wire and, for
	// versions, a tap map shared by the stage's rows, 837 and 186.
	for _, c := range []struct {
		ax    *Axis
		bound float64
	}{
		{robustAxis, 538},
		{versionsAxis, 119},
	} {
		x := deployedRow(t, c.ax)
		row := make([]outcome, len(c.ax.columns))
		allocs := testing.AllocsPerRun(20, func() { c.ax.exchange(x, row, nil) })
		if allocs > c.bound {
			t.Errorf("%s row: %.0f allocs, want <= %.0f", c.ax.name, allocs, c.bound)
		}
		t.Logf("%s row: %.0f allocs", c.ax.name, allocs)
	}

	// One whole comm service job: the representative's exchange plus
	// every copied client, whose cells cost no trace hash and no row
	// state of their own. Measured: 28. With a trace hashed per emitted
	// cell event, a row state per client and a profile map per job, the
	// same job took 82.
	x := deployedRow(t, commAxis)
	stage := wireCall{ctx: x.ctx, r: x.r, host: x.host, bridge: x.bridge}
	nc := len(x.r.clients)
	c, n := make([]outcome, nc), make([]int, nc*commAxis.tallies)
	if copies := commAxis.exchangeService(&stage, x.svc, &x.deployment, c, n); copies == 0 {
		t.Fatalf("comm job on %s copied no client", x.svc.Class)
	}
	allocs := testing.AllocsPerRun(20, func() { commAxis.exchangeService(&stage, x.svc, &x.deployment, c, n) })
	if allocs > 30 {
		t.Errorf("comm job: %.0f allocs, want <= 30", allocs)
	}
	t.Logf("comm job: %.0f allocs", allocs)
}

// deployedRow stages the axis for the roster's first server at -limit
// 2, as runAxisStage does, and returns the first (service × client)
// row whose static steps passed and whose service has an operation.
func deployedRow(t *testing.T, ax *Axis) *wireCall {
	t.Helper()
	ctx := context.Background()
	r := newRunner(config{Limit: 2})
	server := r.servers[0]
	sp, err := r.planFor(server)
	if err != nil {
		t.Fatal(err)
	}
	published, _, err := r.Publish(ctx, server)
	if err != nil {
		t.Fatal(err)
	}
	host := transport.NewHost()
	if ax.version != nil {
		host.SetVersionPolicy(ax.version(server.Name()))
	}
	deployed, _, err := r.deployPublished(host, server, sp.defs, published)
	if err != nil {
		t.Fatal(err)
	}
	bridge := transport.NewLocalBridge(host).WithObs(r.obs)
	for pi := range published {
		for ci, client := range r.clients {
			code := r.verdict(&published[pi], ci)
			if code.errorAnywhere() || code&codeCompileRan == 0 || deployed[pi].op == "" {
				continue
			}
			return &wireCall{ctx: ctx, r: r, host: host, bridge: bridge, client: client,
				svc: &published[pi], deployment: deployed[pi]}
		}
	}
	t.Fatalf("no exchangeable %s row at -limit 2", ax.name)
	return nil
}
