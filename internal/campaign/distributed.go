package campaign

// Distributed campaign execution (DESIGN.md §11). The campaign is
// embarrassingly parallel across plan items, and the durable cell
// journal (checkpoint.go, internal/journal) is already a complete
// record of a slice's outcomes, keyed by each cell's server and class —
// so scale-out is journal-shaped: every catalog's plan splits into
// deterministic shards (WithShard, `interop -shard i/n`), N worker
// processes each run one shard under its own checkpoint directory, and
// a merge coordinator folds the shard journals of every campaign mode
// back into one result per mode.
//
// The determinism contract is the regression guard: the merged Result
// and its obs counters are identical to a single-process run's. A
// shard holds whole plan items — a shape group, or one loose class —
// so every shape is built, memo-served and journaled by one shard
// exactly as a single process would, and a shard's journal is the
// matching subset of a single-process journal. The merge therefore
// checks that the journals tile the campaign, unions them, and replays
// the union (replayCell reconstructs each record's exact counter
// contribution).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
)

// ShardSpec is one worker's deterministic slice of the campaign: the
// plan items (shape groups in plan order, then loose classes, after
// WithLimit) whose item number is congruent to Index modulo Count. The
// zero value means "the whole campaign".
type ShardSpec struct {
	Index int
	Count int
}

// enabled reports whether the spec selects a proper slice.
func (s ShardSpec) enabled() bool { return s.Count != 0 }

// validate checks the slice bounds.
func (s ShardSpec) validate() error {
	if !s.enabled() {
		if s.Index != 0 {
			return fmt.Errorf("campaign: shard spec %d/%d is not a slice", s.Index, s.Count)
		}
		return nil
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("campaign: shard %d/%d out of range (want 0 <= index < count)", s.Index, s.Count)
	}
	return nil
}

// String renders the CLI form, index/count.
func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// shardLease content-addresses one shard's journal identity: the
// campaign configuration fingerprint plus the slice coordinates. The
// tag names the assignment rule, so a shard journal of the earlier
// definition-index rule, which covers another class set, is refused on
// resume and at merge.
func shardLease(fingerprint string, index, count int) string {
	return obs.TraceID("shard-lease-items", fingerprint, strconv.Itoa(index), strconv.Itoa(count))
}

// Merged is the fold of completed shard journals: one result per
// campaign mode, each identical to a single-process run of the same
// configuration (the wire results up to their path collisions, which
// sum the shards' deploy-time counts: collisions depend on which
// classes co-deploy).
type Merged struct {
	// Study is the static study; nil when no shard journaled it.
	Study *Result
	// Wire maps a wire axis's name to its result; an axis no shard
	// journaled is absent.
	Wire map[string]WireResult
}

// Merge folds completed shard journals into one result per campaign
// mode (TestDistributedEquivalenceFull proves the study identical to a
// single-process run at full scale, TestWireAxisContract every wire
// mode). Every shard must have run each journaled mode to completion —
// an interrupted shard is resumed in place (WithResume) before
// merging, and incompleteness is refused with the unfinished stage
// named. The merge itself executes nothing: it verifies the journals
// tile the campaign exactly once and replays their union.
func (r *Runner) Merge(ctx context.Context, dirs []string) (*Merged, error) {
	switch {
	case len(dirs) == 0:
		return nil, fmt.Errorf("campaign: merge needs at least one shard journal directory")
	case r.cfg.Shard.enabled():
		return nil, fmt.Errorf("campaign: the merge coordinator runs unsharded (drop shard %s)", r.cfg.Shard)
	case r.cfg.Checkpoint != "" || r.cfg.Resume:
		return nil, fmt.Errorf("campaign: merge reads shard journals; it does not take its own Checkpoint/Resume")
	}
	m := &Merged{Wire: make(map[string]WireResult)}
	for _, ax := range append([]*Axis{studyAxis}, wireAxes...) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		recs, ok, err := r.loadShards(ax, dirs)
		switch {
		case err != nil:
			return nil, err
		case !ok:
			continue
		case ax == studyAxis:
			m.Study, err = r.mergeStudy(ctx, recs)
		default:
			m.Wire[ax.name], err = r.foldShards(ax, recs)
		}
		if err != nil {
			return nil, err
		}
	}
	if m.Study == nil && len(m.Wire) == 0 {
		return nil, fmt.Errorf("campaign: %s holds no shard journal", strings.Join(dirs, ", "))
	}
	return m, nil
}

// loadShards reads one mode's journal from every shard directory and
// verifies the set tiles this runner's campaign exactly once:
// fingerprint, lease, no cell key journaled in two directories, a
// completion sentinel in each directory for every server stage, and
// shard indexes that cover 0..Count-1. It returns the union of the
// records, every directory's sentinels included; ok is false when no
// shard journaled the mode.
func (r *Runner) loadShards(ax *Axis, dirs []string) (recs []journal.Record, ok bool, err error) {
	fp, leaseFP := r.journalFingerprint(ax), r.checkpointFingerprint()
	metas := make([]*journal.Meta, 0, len(dirs))
	seen := make(map[journal.Key]*journal.Record)
	absent := ""
	for _, dir := range dirs {
		adir := ax.dir(dir)
		meta, shardRecs, err := journal.Load(adir)
		if errors.Is(err, os.ErrNotExist) {
			absent = adir
			continue
		}
		if err != nil {
			return nil, false, err
		}
		if meta.Fingerprint != fp {
			return nil, false, fmt.Errorf("%w: %s (merge must be invoked with the exact configuration the shards ran)",
				journal.ErrFingerprint, adir)
		}
		if sh := meta.Shard; sh != nil {
			if sh.Lease != "" && sh.Lease != shardLease(leaseFP, sh.Index, sh.Count) {
				return nil, false, fmt.Errorf("campaign: %s: lease %s was not issued for shard %d/%d of this campaign",
					adir, sh.Lease, sh.Index, sh.Count)
			}
		}
		// A stage appends its sentinel only after every cell of the stage
		// is journaled, so the directory's sentinels are its completion
		// proof. Every shard journals one per server, so only cells count
		// toward overlap.
		complete := make(map[string]bool, len(r.servers))
		for i := range shardRecs {
			rec := &shardRecs[i]
			if ax.completes(rec) {
				complete[rec.Server] = true
				continue
			}
			if _, dup := seen[rec.Key()]; dup {
				return nil, false, fmt.Errorf("campaign: shard journals overlap: cell %s on %s journaled twice",
					rec.Class, rec.Server)
			}
			seen[rec.Key()] = rec
		}
		for _, server := range r.servers {
			if !complete[server.Name()] {
				return nil, false, fmt.Errorf("campaign: shard journals are incomplete: %s holds no completed %s stage on %s — resume the shard to completion first",
					adir, ax.name, server.Name())
			}
		}
		metas = append(metas, meta)
		recs = append(recs, shardRecs...)
	}
	switch {
	case len(metas) == 0:
		return nil, false, nil
	case absent != "":
		return nil, false, fmt.Errorf("campaign: shard journals are incomplete: %s holds no %s journal — run the shard's %s mode first",
			absent, ax.name, ax.name)
	}
	if err := journal.CheckShards(metas); err != nil {
		return nil, false, err
	}
	return recs, true, nil
}

// mergeStudy replays the unioned study cells through the stage
// executor; the shards' sentinels stay out of the union. Every cell is
// journaled, so the executor runs nothing.
func (r *Runner) mergeStudy(ctx context.Context, recs []journal.Record) (*Result, error) {
	loaded := make(map[journal.Key]*journal.Record, len(recs))
	for i := range recs {
		rec := &recs[i]
		if studyAxis.completes(rec) {
			continue
		}
		if err := r.checkRecord(studyAxis, rec); err != nil {
			return nil, err
		}
		loaded[rec.Key()] = rec
	}
	r.ckpt = r.replayJournal(loaded)
	defer func() { r.ckpt = nil }()
	return r.runCampaign(ctx)
}
