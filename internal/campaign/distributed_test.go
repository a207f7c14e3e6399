package campaign

// Tests for distributed campaign execution (distributed.go):
// shard-restricted runs journaling independently, and the merge
// coordinator folding shard journals into a Result — and metrics —
// identical to a single-process run. The determinism
// contract is the acceptance criterion, proven at full study scale by
// TestDistributedEquivalenceFull.

import (
	"context"
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
)

func TestShardSpecValidate(t *testing.T) {
	cases := []struct {
		spec ShardSpec
		ok   bool
	}{
		{ShardSpec{}, true},
		{ShardSpec{Index: 0, Count: 1}, true},
		{ShardSpec{Index: 3, Count: 4}, true},
		{ShardSpec{Index: 4, Count: 4}, false},
		{ShardSpec{Index: -1, Count: 4}, false},
		{ShardSpec{Index: 0, Count: -2}, false},
		{ShardSpec{Index: 2, Count: 0}, false},
	}
	for _, c := range cases {
		if err := c.spec.validate(); (err == nil) != c.ok {
			t.Errorf("validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

// TestShardPartitionTiles proves the shard filter partitions the plan
// by item: for every server the shards' class sets are disjoint, their
// union is the unsharded definition list, and every item of the
// unsharded plan — a shape group in plan order, then each loose class —
// lies wholly in shard (item number mod n).
func TestShardPartitionTiles(t *testing.T) {
	const limit = 150
	full := newRunner(config{Limit: limit})
	for _, n := range []int{2, 4} {
		shards := make([]*Runner, n)
		for i := range shards {
			shards[i] = newRunner(config{Limit: limit, Shard: ShardSpec{Index: i, Count: n}})
		}
		for _, server := range full.servers {
			sp, err := full.planFor(server)
			if err != nil {
				t.Fatal(err)
			}
			owner := make(map[string]int)
			for i, shr := range shards {
				ssp, err := shr.planFor(server)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range ssp.defs {
					if prev, dup := owner[d.Parameter.Name]; dup {
						t.Fatalf("%d-way %s: class %s in shards %d and %d", n, server.Name(), d.Parameter.Name, prev, i)
					}
					owner[d.Parameter.Name] = i
				}
			}
			if len(owner) != len(sp.defs) {
				t.Fatalf("%d-way %s: shards cover %d of %d definitions", n, server.Name(), len(owner), len(sp.defs))
			}
			items := make([][]int, 0, len(sp.Groups)+len(sp.Loose))
			for _, g := range sp.Groups {
				items = append(items, g.Members)
			}
			for _, di := range sp.Loose {
				items = append(items, []int{di})
			}
			for k, members := range items {
				for _, di := range members {
					class := sp.defs[di].Parameter.Name
					if got, ok := owner[class]; !ok || got != k%n {
						t.Fatalf("%d-way %s: item %d's class %s in shard %d (present %v), want shard %d",
							n, server.Name(), k, class, got, ok, k%n)
					}
				}
			}
		}
	}
}

// TestShardsBuildEachShapeOnce: a shape lives in one shard, so summed
// over the shards the study builds, generates and WS-I-checks exactly
// what a single process does.
func TestShardsBuildEachShapeOnce(t *testing.T) {
	const limit = 150
	work := func(cfg config) [3]int64 {
		t.Helper()
		cfg.Obs = obs.NewRegistry()
		res, err := newRunner(cfg).Run(context.Background())
		if err != nil {
			t.Fatalf("shard %s: %v", cfg.Shard, err)
		}
		return [3]int64{int64(res.Dedup.Shapes),
			cfg.Obs.Counter("campaign.generate.runs").Value(),
			cfg.Obs.Counter("campaign.wsi.checks").Value()}
	}
	want := work(config{Limit: limit, Workers: 4})
	for _, n := range []int{2, 4} {
		var got [3]int64
		for i := 0; i < n; i++ {
			w := work(config{Limit: limit, Workers: 4, Shard: ShardSpec{Index: i, Count: n}})
			for k := range got {
				got[k] += w[k]
			}
		}
		if got != want {
			t.Errorf("%d-way: shards sum to (shapes, generate runs, wsi checks) = %v, single process %v", n, got, want)
		}
	}
}

// runShardWorkers executes every shard of an n-way split to completion
// in its own checkpoint directory — simulating n worker processes —
// and returns the journal directories. killShard, when >= 0, first
// interrupts that shard's run mid-journal and then resumes it, so the
// matrix covers the worker-crash-and-resume path.
func runShardWorkers(t *testing.T, limit, workers, n, killShard, killAt int) []string {
	t.Helper()
	base := t.TempDir()
	dirs := make([]string, n)
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(base, fmt.Sprintf("shard%d", i))
		cfg := resumeConfig(limit, workers)
		cfg.Shard = ShardSpec{Index: i, Count: n}
		if i == killShard {
			interruptAt(t, cfg, dirs[i], killAt)
			rcfg := resumeConfig(limit, workers)
			rcfg.Shard = ShardSpec{Index: i, Count: n}
			rcfg.Checkpoint, rcfg.Resume = dirs[i], true
			if _, err := newRunner(rcfg).Run(context.Background()); err != nil {
				t.Fatalf("resume killed shard %d/%d: %v", i, n, err)
			}
			continue
		}
		cfg.Checkpoint = dirs[i]
		if _, err := newRunner(cfg).Run(context.Background()); err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
	}
	return dirs
}

// mergeShardJournals folds shard journals with a fresh frozen-clock runner of
// the same campaign configuration.
func mergeShardJournals(t *testing.T, limit, workers int, dirs []string) (*Result, *obs.Snapshot) {
	t.Helper()
	cfg := resumeConfig(limit, workers)
	r := newRunner(cfg)
	m, err := r.Merge(context.Background(), dirs)
	if err != nil {
		t.Fatalf("merge %d shards: %v", len(dirs), err)
	}
	return m.Study, cfg.Obs.Snapshot()
}

// runDistributedMatrix is the shared equivalence matrix: split the
// campaign 1, 2, and 4 ways (one 4-way shard killed and resumed),
// merge, and compare against a single-process run byte-for-byte.
func runDistributedMatrix(t *testing.T, limit int) {
	cleanCfg := resumeConfig(limit, 4)
	clean, err := newRunner(cleanCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	cleanBytes := resultBytes(t, clean)
	cleanSnap := cleanCfg.Obs.Snapshot()

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			killShard, killAt := -1, 0
			if n == 4 {
				// One worker dies mid-shard and is resumed before merging.
				killShard, killAt = 1, clean.TotalServices/(n*4)
			}
			dirs := runShardWorkers(t, limit, 4, n, killShard, killAt)
			res, snap := mergeShardJournals(t, limit, 4, dirs)

			compareResults(t, clean, res)
			if !reflect.DeepEqual(clean.Dedup, res.Dedup) {
				t.Errorf("dedup stats differ:\nsingle: %+v\nmerged: %+v", clean.Dedup, res.Dedup)
			}
			if !reflect.DeepEqual(clean.Failures, res.Failures) {
				t.Errorf("failure index differs: single %d entries, merged %d",
					len(clean.Failures), len(res.Failures))
			}
			if got := resultBytes(t, res); string(got) != string(cleanBytes) {
				t.Error("merged Result is not byte-identical to the single-process run")
			}
			compareSnapshots(t, fmt.Sprintf("shards=%d", n), cleanSnap, snap)
		})
	}
}

func TestDistributedEquivalenceScaled(t *testing.T) {
	runDistributedMatrix(t, 150)
}

// TestDistributedEquivalenceFull is the acceptance check at full study
// scale: 22 024 service cells split 1, 2, and 4 ways across
// independently journaling workers (one killed and resumed), merged
// into a Result byte-identical — and counters/histograms DeepEqual —
// to the single-process run.
func TestDistributedEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale distributed equivalence skipped in -short mode")
	}
	cleanCfg := resumeConfig(0, 0)
	clean, err := newRunner(cleanCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	if clean.TotalServices != 22024 {
		t.Fatalf("TotalServices = %d, want the study's 22024", clean.TotalServices)
	}
	cleanBytes := resultBytes(t, clean)
	cleanSnap := cleanCfg.Obs.Snapshot()

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			killShard, killAt := -1, 0
			if n == 4 {
				killShard, killAt = 2, clean.TotalServices/(n*2)
			}
			dirs := runShardWorkers(t, 0, 0, n, killShard, killAt)
			res, snap := mergeShardJournals(t, 0, 0, dirs)
			compareResults(t, clean, res)
			if !reflect.DeepEqual(clean.Dedup, res.Dedup) {
				t.Errorf("dedup stats differ:\nsingle: %+v\nmerged: %+v", clean.Dedup, res.Dedup)
			}
			if got := resultBytes(t, res); string(got) != string(cleanBytes) {
				t.Error("merged Result is not byte-identical to the single-process run")
			}
			compareSnapshots(t, fmt.Sprintf("shards=%d", n), cleanSnap, snap)
		})
	}
}

// TestMergeRefusals: every way a merge can be wrong fails loudly with
// nothing executed, instead of producing a silently-miscounted Result.
func TestMergeRefusals(t *testing.T) {
	const limit = 40
	dirs := runShardWorkers(t, limit, 4, 2, -1, 0)

	t.Run("fingerprint-mismatch", func(t *testing.T) {
		cfg := resumeConfig(limit+1, 4) // different Limit → different campaign
		_, err := newRunner(cfg).Merge(context.Background(), dirs)
		if !errors.Is(err, journal.ErrFingerprint) {
			t.Errorf("err = %v, want journal.ErrFingerprint", err)
		}
	})
	t.Run("missing-shard", func(t *testing.T) {
		_, err := newRunner(resumeConfig(limit, 4)).Merge(context.Background(), dirs[:1])
		if err == nil || !strings.Contains(err.Error(), "journals for a") {
			t.Errorf("merging 1 of 2 shards: err = %v", err)
		}
	})
	t.Run("duplicate-shard", func(t *testing.T) {
		_, err := newRunner(resumeConfig(limit, 4)).Merge(context.Background(), []string{dirs[0], dirs[0]})
		if err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Errorf("merging one shard twice: err = %v", err)
		}
	})
	t.Run("incomplete-shard", func(t *testing.T) {
		base := t.TempDir()
		half := []string{filepath.Join(base, "s0"), filepath.Join(base, "s1")}
		cfg := resumeConfig(limit, 4)
		cfg.Shard = ShardSpec{Index: 0, Count: 2}
		cfg.Checkpoint = half[0]
		if _, err := newRunner(cfg).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Shard 1 is killed after its third cell and never resumed: its
		// journal keeps the first three records. A cancelled run would
		// not do: its drain can finish every cell before the
		// cancellation lands.
		icfg := resumeConfig(limit, 4)
		icfg.Shard = ShardSpec{Index: 1, Count: 2}
		icfg.Checkpoint = half[1]
		if _, err := newRunner(icfg).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		journaltest.KeepFrames(t, half[1], 3)
		_, err := newRunner(resumeConfig(limit, 4)).Merge(context.Background(), half)
		if err == nil || !strings.Contains(err.Error(), "incomplete") {
			t.Errorf("merging an interrupted shard: err = %v", err)
		}
	})
	t.Run("merge-while-sharded", func(t *testing.T) {
		cfg := resumeConfig(limit, 4)
		cfg.Shard = ShardSpec{Index: 0, Count: 2}
		if _, err := newRunner(cfg).Merge(context.Background(), dirs); err == nil {
			t.Error("merge on a sharded runner should fail")
		}
	})
	t.Run("merge-with-checkpoint", func(t *testing.T) {
		cfg := resumeConfig(limit, 4)
		cfg.Checkpoint = t.TempDir()
		if _, err := newRunner(cfg).Merge(context.Background(), dirs); err == nil {
			t.Error("merge with its own checkpoint should fail")
		}
	})
	t.Run("stale-lease", func(t *testing.T) {
		// A shard journal whose lease follows the earlier definition-index
		// assignment covers another class set: resuming it and merging it
		// are both refused.
		dir := t.TempDir()
		cfg := resumeConfig(limit, 4)
		cfg.Shard, cfg.Checkpoint = ShardSpec{Index: 0, Count: 2}, dir
		r := newRunner(cfg)
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		meta := filepath.Join(studyAxis.dir(dir), "meta.json")
		data, err := os.ReadFile(meta)
		if err != nil {
			t.Fatal(err)
		}
		fp := r.checkpointFingerprint()
		lease, stale := shardLease(fp, 0, 2), obs.TraceID("shard-lease", fp, "0", "2")
		if !strings.Contains(string(data), lease) {
			t.Fatalf("meta.json has no lease %s: %s", lease, data)
		}
		if err := os.WriteFile(meta, []byte(strings.Replace(string(data), lease, stale, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		rcfg := resumeConfig(limit, 4)
		rcfg.Shard, rcfg.Checkpoint, rcfg.Resume = cfg.Shard, dir, true
		if _, err := newRunner(rcfg).Run(context.Background()); !errors.Is(err, journal.ErrShard) {
			t.Errorf("resuming a stale-lease shard: err = %v, want journal.ErrShard", err)
		}
		_, err = newRunner(resumeConfig(limit, 4)).Merge(context.Background(), []string{dir, dirs[1]})
		if err == nil || !strings.Contains(err.Error(), "lease") {
			t.Errorf("merging a stale-lease shard: err = %v", err)
		}
	})
	t.Run("no-dirs", func(t *testing.T) {
		if _, err := newRunner(resumeConfig(limit, 4)).Merge(context.Background(), nil); err == nil {
			t.Error("merge with no directories should fail")
		}
	})
}

// TestShardJournalIdentity: a shard journal refuses to resume as a
// different shard or as a whole-campaign checkpoint.
func TestShardJournalIdentity(t *testing.T) {
	const limit = 30
	dir := t.TempDir()
	cfg := resumeConfig(limit, 2)
	cfg.Shard = ShardSpec{Index: 0, Count: 2}
	cfg.Checkpoint = dir
	if _, err := newRunner(cfg).Run(context.Background()); err != nil {
		t.Fatalf("shard run: %v", err)
	}

	wrong := resumeConfig(limit, 2)
	wrong.Shard = ShardSpec{Index: 1, Count: 2}
	wrong.Checkpoint, wrong.Resume = dir, true
	if _, err := newRunner(wrong).Run(context.Background()); !errors.Is(err, journal.ErrShard) {
		t.Errorf("resuming as the wrong shard: err = %v, want journal.ErrShard", err)
	}

	whole := resumeConfig(limit, 2)
	whole.Checkpoint, whole.Resume = dir, true
	if _, err := newRunner(whole).Run(context.Background()); !errors.Is(err, journal.ErrShard) {
		t.Errorf("resuming a shard journal unsharded: err = %v, want journal.ErrShard", err)
	}
}
