package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
)

// wireModes drives the three wire axes through their public entry
// points, for the contract suite below.
var wireModes = []struct {
	axis *wireAxis
	// limit is the equivalence scale (full, -short); the fault matrix
	// exchanges eleven times per row, so it runs smaller.
	limit, short int
	run          func(*Runner, context.Context) (any, error)
}{
	{commAxis, 200, 60, func(r *Runner, ctx context.Context) (any, error) { return r.RunCommunication(ctx) }},
	{robustAxis, 60, 20, func(r *Runner, ctx context.Context) (any, error) { return r.RunRobustness(ctx) }},
	{versionsAxis, 200, 60, func(r *Runner, ctx context.Context) (any, error) { return r.RunVersions(ctx) }},
}

// TestWireAxisContract is the shared contract of every wire mode:
//
//   - equivalence: worker count, scheduling, the reparse hook and the
//     shape-memo ablation never change a cell;
//   - resume: interrupted at several journal append counts, a resumed
//     run returns the clean run's result byte for byte (for
//     communication, with the sniffer's exchange and violation
//     counts), and resuming a finished journal exchanges nothing;
//   - refusal: a journal written under another limit, under another
//     column catalog, or in the pre-executor layout (the bare campaign
//     fingerprint) is refused with journal.ErrFingerprint.
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
				{"reparse", config{Limit: limit, Workers: 4, reparse: true}},
				{"nodedup", config{Limit: limit, Workers: 4, noDedup: true}},
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
			if err := j.Append(journal.Record{Trace: "0123456789abcdef", Server: "Metro", Class: "java.lang.Object",
				Mode: m.axis.name, Published: true,
				Rows: []journal.OutcomeRow{{Client: "Metro", Outcomes: []string{"accept"}}}}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, err = run(t, config{Limit: limit, Workers: 2, Checkpoint: old, Resume: true}, context.Background())
			refused(t, "pre-executor layout", err)
		})
	}
}
