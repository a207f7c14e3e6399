package campaign

// Distributed campaign execution (DESIGN.md §11). The campaign is
// embarrassingly parallel across catalog slices, and the durable cell
// journal (checkpoint.go, internal/journal) is already a complete
// record of a slice's outcomes, keyed by each cell's server and class —
// so scale-out is journal-shaped: every catalog splits into
// deterministic shards (WithShard, `interop -shard i/n`), N worker
// processes each run one shard under its own checkpoint directory, and
// a merge coordinator folds the shard journals of every campaign mode
// back into one result per mode.
//
// The determinism contract is the regression guard: the merged Result
// and its obs counters are identical to a single-process run's. Replay
// (replayCell) already reconstructs exact counter contributions per
// journal record; what merging adds is normalization. Each shard runs
// its own shape memo, so a shape spanning k shards was built k times —
// k "built" records and k executed test sets where a single process
// would have one builder and k-1 memo-served clones. normalizeShards
// rewrites every (server, shape) group of journaled cells into that
// single-builder form before replay; the rewrite is counter-exact
// because builder choice is invariant (the builder contributes
// shapes+1 plus the full publish metrics, every other same-shape class
// contributes one memo hit — the checkpoint.go invariant), and
// outcomes are invariant because same-shape classes classify
// identically (the memo layer's verified property).

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

// ShardSpec is one worker's deterministic slice of the campaign:
// catalog definition indexes congruent to Index modulo Count (after
// WithLimit). The zero value means "the whole campaign".
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
// campaign configuration fingerprint plus the slice coordinates.
func shardLease(fingerprint string, index, count int) string {
	return obs.TraceID("shard-lease", fingerprint, strconv.Itoa(index), strconv.Itoa(count))
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
// tile the campaign exactly once, normalizes cross-shard memo state,
// and replays.
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

// mergeStudy replays the unioned study cells, normalized to the
// single-builder form, through the stage executor; the shards'
// sentinels stay out of the union. Every cell is journaled, so the
// executor runs nothing.
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
	if err := r.normalizeShards(loaded); err != nil {
		return nil, err
	}
	r.ckpt = r.replayJournal(loaded)
	defer func() { r.ckpt = nil }()
	return r.runCampaign(ctx)
}

// normalizeShards rewrites the unioned shard records into the form a
// single-process run would have journaled: one builder per (server,
// shape) group of the plan, every other member demoted to its
// memo-served mode, and exactly one executed test set per (shape,
// client). Loose classes are per-class records, already
// shard-invariant, so only the plan's groups are folded.
func (r *Runner) normalizeShards(loaded map[journal.Key]*journal.Record) error {
	for _, server := range r.servers {
		sp, err := r.planFor(server)
		if err != nil {
			return err
		}
		for gi := range sp.Groups {
			if err := normalizeShapeGroup(server.Name(), sp, &sp.Groups[gi], loaded); err != nil {
				return err
			}
		}
	}
	return nil
}

// normalizeShapeGroup folds one (server, shape) group: the designated
// builder is the group's first builder record in catalog order — any
// builder works, the totals are builder-invariant — and every other
// builder is demoted to the memo route it would have taken had the
// designated builder's shard entry been visible to it. Executed test
// bits consolidate onto the builder: one per (shape, client).
func normalizeShapeGroup(server string, sp *serverPlan, g *planGroup, loaded map[journal.Key]*journal.Record) error {
	group := make([]*journal.Record, len(g.Members))
	builderAt := -1
	for mi, di := range g.Members {
		class := sp.defs[di].Parameter.Name
		rec := loaded[journal.Key{Server: server, Class: class}]
		if rec == nil {
			return fmt.Errorf("campaign: shard journals are incomplete: no cell for %s on %s", class, server)
		}
		group[mi] = rec
		if rec.Mode != modeBuilt.id() {
			continue
		}
		if builderAt == -1 {
			builderAt = mi
			continue
		}
		// Cross-shard consistency: independent builders of one shape must
		// agree on every shape-level fact, or the journals were produced
		// by diverging builds and the merge would be fiction.
		if a := group[builderAt]; a.Published != rec.Published || a.Verified != rec.Verified ||
			a.Flagged != rec.Flagged || a.Compliant != rec.Compliant || a.Profiles != rec.Profiles {
			return fmt.Errorf("campaign: shard journals disagree on the shape of %s and %s on %s",
				a.Class, rec.Class, server)
		}
	}
	if builderAt == -1 {
		// Every shard builds a shape before memo-serving it, so a group
		// whose cells are all memo-served has no owning builder anywhere —
		// mismatched journals.
		return fmt.Errorf("campaign: no shard journaled a builder for the shape of %s on %s",
			group[0].Class, server)
	}
	builder := group[builderAt]
	for i, rec := range group {
		if i == builderAt {
			continue
		}
		if rec.Mode == modeFallback.id() {
			// Memoizable classes never take this route; a journal that
			// says otherwise disagrees with this build's shape guard.
			return recordError(rec, "took route %q for a memoizable class", rec.Mode)
		}
		switch {
		case !builder.Published:
			rec.Mode = modeMemoRejected.id()
			rec.Published, rec.Verified = false, false
			rec.Flagged, rec.Compliant = false, false
			rec.Profiles, rec.Doc, rec.Codes = 0, nil, nil
		case builder.Verified && g.safe[i]:
			rec.Mode = modeMemoized.id()
			rec.Verified = false
			rec.Doc = nil
			setExecuted(rec.Codes, false)
		default:
			// Unverified shape, or name-sensitive WS-I predicates refuse
			// the substitution: the per-class path, executed in full.
			rec.Mode = modeMemoFallback.id()
			rec.Verified = false
			rec.Doc = nil
			setExecuted(rec.Codes, true)
		}
	}
	if builder.Published && builder.Verified {
		// The single process's builder executes every client test once;
		// its same-shape clones are all memo-served.
		setExecuted(builder.Codes, true)
	}
	return nil
}

// setExecuted sets or clears the executed bit of every journaled code.
func setExecuted(codes []byte, ran bool) {
	for i := range codes {
		if ran {
			codes[i] |= byte(codeExecuted)
		} else {
			codes[i] &^= byte(codeExecuted)
		}
	}
}
