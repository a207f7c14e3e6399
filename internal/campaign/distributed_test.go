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

// TestShardPartitionTiles proves the shard filter is a partition: for
// every server the shard slices are disjoint and their union, ordered
// by shard-interleaving, is exactly the unsharded definition list.
func TestShardPartitionTiles(t *testing.T) {
	full := newRunner(config{Limit: 37})
	for _, server := range full.servers {
		defs, err := full.defsFor(server)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4
		seen := make(map[string]int)
		total := 0
		for i := 0; i < n; i++ {
			shr := newRunner(config{Limit: 37, Shard: ShardSpec{Index: i, Count: n}})
			sdefs, err := shr.defsFor(server)
			if err != nil {
				t.Fatal(err)
			}
			total += len(sdefs)
			for k, d := range sdefs {
				if prev, dup := seen[d.Parameter.Name]; dup {
					t.Fatalf("%s: class %s in shards %d and %d", server.Name(), d.Parameter.Name, prev, i)
				}
				seen[d.Parameter.Name] = i
				if want := defs[i+k*n].Parameter.Name; d.Parameter.Name != want {
					t.Fatalf("%s shard %d slot %d = %s, want %s", server.Name(), i, k, d.Parameter.Name, want)
				}
			}
		}
		if total != len(defs) {
			t.Fatalf("%s: shards cover %d of %d definitions", server.Name(), total, len(defs))
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

// TestDistributedNoDedupAblation: sharded execution composes with the
// shape-memo ablation — per-class journals merge without any
// cross-shard normalization.
func TestDistributedNoDedupAblation(t *testing.T) {
	const limit = 60
	cleanCfg := resumeConfig(limit, 4)
	cleanCfg.noDedup = true
	clean, err := newRunner(cleanCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	base := t.TempDir()
	dirs := make([]string, 2)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("shard%d", i))
		cfg := resumeConfig(limit, 4)
		cfg.noDedup = true
		cfg.Shard = ShardSpec{Index: i, Count: 2}
		cfg.Checkpoint = dirs[i]
		if _, err := newRunner(cfg).Run(context.Background()); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	mcfg := resumeConfig(limit, 4)
	mcfg.noDedup = true
	m, err := newRunner(mcfg).Merge(context.Background(), dirs)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	res := m.Study
	compareResults(t, clean, res)
	if got, want := resultBytes(t, res), resultBytes(t, clean); string(got) != string(want) {
		t.Error("merged nodedup Result is not byte-identical to the single-process run")
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
