package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s %s: deployment from the typed document differs from the parsed bytes' one",
					server.Name(), published[i].Class)
			}
		}
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
// serves at ?wsdl: every deployed endpoint's Description, taken from
// Publish instead of a second render, equals wsdl.Marshal of the typed
// document the endpoint was derived from.
func TestDeployServesPublishedBytes(t *testing.T) {
	ctx := context.Background()
	r := newRunner(limitedConfig(60))
	deployedTotal := 0
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
		defs := make(map[string]services.Definition, len(sp.defs))
		for _, def := range sp.defs {
			defs[def.Parameter.Name] = def
		}
		for i, d := range deployed {
			if d.ep == nil {
				continue
			}
			deployedTotal++
			doc, err := server.Publish(defs[published[i].Class])
			if err != nil {
				t.Fatal(err)
			}
			want, err := wsdl.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.ep.Description, want) {
				t.Errorf("%s %s: ?wsdl serves %d bytes that differ from wsdl.Marshal of the deployed document (%d bytes)",
					server.Name(), published[i].Class, len(d.ep.Description), len(want))
			}
		}
	}
	if deployedTotal == 0 {
		t.Fatal("no service deployed")
	}
}

// TestWireRowAllocs pins the allocations of one robust row (eleven
// faulted exchanges) and one versions row (four scenarios) on a
// service deployed at -limit 2, so per-exchange bookkeeping that
// nothing reads — a minted trace, a stage-wide response tap — cannot
// creep back into the rows.
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
	bridge := host.Local().WithObs(r.obs)
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
