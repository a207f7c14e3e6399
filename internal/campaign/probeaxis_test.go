package campaign

import (
	"context"
	"net/http"
	"reflect"
	"testing"

	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
	"wsinterop/internal/transport"
)

// probeAxis is a fourth matrix axis declared in this file alone: every
// (service × client) row sends its echo request once as SOAP 1.1 and
// once as SOAP 1.2 to a plain host, and a cell echoes when the reply is
// the intact echo. It has no presentation, since nothing renders it.
var probeAxis = &Axis{
	name:     "probe",
	columns:  []string{"v11", "v12"},
	codes:    []string{"skipped", "echoed", "failed"},
	counters: []string{"test.probe.skipped", "test.probe.echoed", "test.probe.failed"},
	handler:  func(_ *Runner, _ string, host *transport.Host) http.Handler { return host },
	exchange: func(x *wireCall, row []outcome, _ []int) {
		for col, codec := range []soap.Codec{soap.V11, soap.V12} {
			row[col] = 0
			if x.op == "" {
				continue
			}
			row[col] = 2
			if resp, err := x.invoke(x.bridge.WithCodec(codec)); err == nil {
				if _, intact := x.echo(resp); intact {
					row[col] = 1
				}
			}
		}
	},
}

// TestProbeAxis holds a new axis to the executor's contract with no
// edit outside this file: registered beside the others, it runs,
// journals, resumes from a mid-run kill and merges 2 shards through
// Runner.Merge, each into the clean single-process matrix.
func TestProbeAxis(t *testing.T) {
	wireAxes = append(wireAxes, probeAxis)
	t.Cleanup(func() { wireAxes = wireAxes[:len(wireAxes)-1] })
	const limit = 12
	run := func(t *testing.T, ctx context.Context, cfg config) (*Matrix, error) {
		t.Helper()
		res, err := newRunner(cfg).RunWire(ctx, probeAxis)
		if err != nil {
			return nil, err
		}
		return res.(*Matrix), nil
	}
	mustRun := func(t *testing.T, cfg config) *Matrix {
		t.Helper()
		m, err := run(t, context.Background(), cfg)
		if err != nil {
			t.Fatalf("probe run: %v", err)
		}
		return m
	}

	clean := mustRun(t, config{Limit: limit, Workers: 4})
	// A plain host speaks SOAP 1.1 alone: the v11 column echoes and the
	// v12 column fails, cell for cell.
	v11, v12 := clean.ColumnTotals()[0], clean.ColumnTotals()[1]
	if v11[1] == 0 || v11[1] != v12[2] || v11[2] != 0 || v12[1] != 0 {
		t.Errorf("columns v11 %v, v12 %v: want every exchanged v11 cell echoed and its v12 twin failed", v11, v12)
	}
	for _, workers := range []int{1, 8} {
		if got := mustRun(t, config{Limit: limit, Workers: workers}); !reflect.DeepEqual(got, clean) {
			t.Errorf("matrix at %d workers differs from 4 workers", workers)
		}
	}

	t.Run("resume", func(t *testing.T) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := config{Limit: limit, Workers: 4, Checkpoint: dir}
		cfg.checkpointProbe = func(appended int) {
			if appended == 3 {
				cancel()
			}
		}
		if _, err := run(t, ctx, cfg); err == nil {
			t.Log("the run completed before the kill point; resuming a finished journal")
		}
		reg := obs.NewRegistry()
		resumed := mustRun(t, config{Limit: limit, Workers: 4, Checkpoint: dir, Resume: true, Obs: reg})
		if !reflect.DeepEqual(resumed, clean) {
			t.Error("resumed matrix differs from the clean run")
		}
		if reg.Counter("journal.cells.resumed").Value() == 0 {
			t.Error("the resume replayed no journaled service")
		}
	})

	t.Run("merge", func(t *testing.T) {
		dirs := []string{t.TempDir(), t.TempDir()}
		for i, dir := range dirs {
			mustRun(t, config{Limit: limit, Workers: 2, Checkpoint: dir, Shard: ShardSpec{Index: i, Count: len(dirs)}})
		}
		merged, err := newRunner(config{Limit: limit}).Merge(context.Background(), dirs)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		got, ok := merged.Wire[probeAxis.name].(*Matrix)
		if !ok || merged.Study != nil || len(merged.Wire) != 1 {
			t.Fatalf("merge = %+v, want the probe matrix alone", merged)
		}
		// Path collisions sum each shard's deploy (see Merged).
		want := mustRun(t, config{Limit: limit, Workers: 2})
		clear(got.Collisions)
		clear(want.Collisions)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("merged matrix differs from the single process:\nmerged: %+v\nsingle: %+v", got, want)
		}
	})
}
