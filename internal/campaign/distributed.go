package campaign

// Distributed campaign execution (DESIGN.md §11). The campaign is
// embarrassingly parallel across catalog slices, and the durable cell
// journal (checkpoint.go, internal/journal) is already a complete,
// content-addressed record of a slice's outcomes — so scale-out is
// journal-shaped: a planner splits every catalog into deterministic
// shard leases, N worker processes each run one shard under its own
// checkpoint directory, and a merge coordinator folds the shard
// journals back into one Result.
//
// The determinism contract is the regression guard: the merged Result
// and its obs counters are identical to a single-process run's. Replay
// (replayService) already reconstructs exact counter contributions per
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
	"fmt"
	"strconv"

	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/shape"
	"wsinterop/internal/wsi"
)

// ShardSpec is one worker's lease on a deterministic slice of the
// campaign: catalog definition indexes congruent to Index modulo
// Count (after WithLimit). The zero value means "the whole
// campaign". Lease, when set, is the content-addressed lease ID the
// planner issued; a runner refuses a lease minted for a different
// campaign configuration, so a spec cannot silently be replayed
// against the wrong catalog or roster.
type ShardSpec struct {
	Index int
	Count int
	Lease string
}

// enabled reports whether the spec selects a proper slice.
func (s ShardSpec) enabled() bool { return s.Count != 0 }

// validate checks the slice bounds.
func (s ShardSpec) validate() error {
	if !s.enabled() {
		if s.Index != 0 || s.Lease != "" {
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

// shardLease content-addresses one shard lease: the campaign
// configuration fingerprint plus the slice coordinates.
func shardLease(fingerprint string, index, count int) string {
	return obs.TraceID("shard-lease", fingerprint, strconv.Itoa(index), strconv.Itoa(count))
}

// PlanShards splits the runner's configured campaign into n shard
// leases. The specs are deterministic and content-addressed: planning
// the same configuration twice — on different machines — yields the
// same leases, so workers need no coordinator beyond agreeing on the
// configuration. Each spec is ready for a worker runner
// (WithShard) or the CLI form `interop -shard i/n`.
func (r *Runner) PlanShards(n int) ([]ShardSpec, error) {
	if n < 1 {
		return nil, fmt.Errorf("campaign: cannot plan %d shards", n)
	}
	if r.cfg.Shard.enabled() {
		return nil, fmt.Errorf("campaign: cannot re-plan from sharded configuration %s", r.cfg.Shard)
	}
	fp := r.checkpointFingerprint()
	specs := make([]ShardSpec, n)
	for i := range specs {
		specs[i] = ShardSpec{Index: i, Count: n, Lease: shardLease(fp, i, n)}
	}
	return specs, nil
}

// Merge folds the shard journals under dirs into one campaign Result,
// using a runner built from opts — which must describe the exact
// campaign the shards ran (the configuration fingerprint is verified).
// The package-level convenience form of Runner.Merge.
func Merge(ctx context.Context, dirs []string, opts ...Option) (*Result, error) {
	return New(opts...).Merge(ctx, dirs)
}

// Merge folds completed shard journals into one Result identical to a
// single-process run of the same configuration
// (TestDistributedEquivalenceFull proves this at full scale). Every
// shard must have run to completion — an interrupted shard is resumed
// in place (WithResume) before merging, and incompleteness is
// refused with the missing cell named. The merge itself executes
// nothing: it verifies the journals tile the campaign exactly once,
// normalizes cross-shard memo state, and replays.
func (r *Runner) Merge(ctx context.Context, dirs []string) (*Result, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("campaign: merge needs at least one shard journal directory")
	}
	if r.cfg.Shard.enabled() {
		return nil, fmt.Errorf("campaign: the merge coordinator runs unsharded (drop shard %s)", r.cfg.Shard)
	}
	if r.cfg.Checkpoint != "" || r.cfg.Resume {
		return nil, fmt.Errorf("campaign: merge reads shard journals; it does not take its own Checkpoint/Resume")
	}
	loaded, err := r.loadShardJournals(dirs)
	if err != nil {
		return nil, err
	}
	if err := r.checkMergeComplete(loaded); err != nil {
		return nil, err
	}
	if err := r.normalizeShards(loaded); err != nil {
		return nil, err
	}
	// Replay-only checkpoint state: every cell is in loaded, so the
	// stage executor runs nothing and the journal writer side (j,
	// ch) stays nil — append is nil-channel-safe and closeCheckpoint is
	// never involved because runCampaign is entered directly.
	r.ckpt = &checkpointState{
		loaded:   loaded,
		resumed:  r.obs.Counter("journal.cells.resumed"),
		executed: r.obs.Counter("journal.cells.executed"),
	}
	defer func() { r.ckpt = nil }()
	return r.runCampaign(ctx)
}

// loadShardJournals reads every shard journal, verifies the set tiles
// this runner's campaign exactly once (fingerprint, lease, shard
// indexes), and unions the records, refusing overlap.
func (r *Runner) loadShardJournals(dirs []string) (map[string]*journal.Record, error) {
	fp := r.checkpointFingerprint()
	metas := make([]*journal.Meta, 0, len(dirs))
	loaded := make(map[string]*journal.Record)
	for _, dir := range dirs {
		meta, recs, err := journal.Load(dir)
		if err != nil {
			return nil, err
		}
		if meta.Fingerprint != fp {
			return nil, fmt.Errorf("%w: %s (merge must be invoked with the exact configuration the shards ran)",
				journal.ErrFingerprint, dir)
		}
		if sh := meta.Shard; sh != nil && sh.Lease != "" {
			if want := shardLease(fp, sh.Index, sh.Count); sh.Lease != want {
				return nil, fmt.Errorf("campaign: %s: lease %s was not issued for shard %d/%d of this campaign",
					dir, sh.Lease, sh.Index, sh.Count)
			}
		}
		metas = append(metas, meta)
		for i := range recs {
			rec := &recs[i]
			if prev, dup := loaded[rec.Trace]; dup {
				return nil, fmt.Errorf("campaign: shard journals overlap: cell %s (%s on %s) journaled twice",
					rec.Trace, prev.Class, prev.Server)
			}
			loaded[rec.Trace] = rec
		}
	}
	if err := journal.CheckShards(metas); err != nil {
		return nil, err
	}
	return loaded, nil
}

// checkMergeComplete verifies every cell of the campaign is journaled,
// so the merge replays everything and executes nothing. A missing cell
// means its shard was interrupted; the fix is resuming that shard to
// completion, not silently re-executing inside the coordinator.
func (r *Runner) checkMergeComplete(loaded map[string]*journal.Record) error {
	for _, server := range r.servers {
		defs, err := r.defsFor(server)
		if err != nil {
			return err
		}
		for i := range defs {
			class := defs[i].Parameter.Name
			if _, ok := loaded[cellTrace(server.Name(), class)]; !ok {
				return fmt.Errorf("campaign: shard journals are incomplete: no cell for %s on %s — resume the owning shard to completion first",
					class, server.Name())
			}
		}
	}
	return nil
}

// shardMember is one journaled cell within a (server, shape) group.
type shardMember struct {
	def services.Definition
	rec *journal.Record
}

// normalizeShards rewrites the unioned shard records into the form a
// single-process run would have journaled: one builder per (server,
// shape), every other member demoted to its memo-served mode, and
// exactly one executed test set per (shape, client). A no-op for the
// nodedup ablation, whose journals contain only per-class records that
// are already shard-invariant.
func (r *Runner) normalizeShards(loaded map[string]*journal.Record) error {
	if !r.dedupOn() {
		return nil
	}
	for _, server := range r.servers {
		defs, err := r.defsFor(server)
		if err != nil {
			return err
		}
		groups := make(map[shape.Fingerprint][]shardMember)
		var order []shape.Fingerprint
		for i := range defs {
			if !shape.Memoizable(defs[i]) {
				continue
			}
			trace := cellTrace(server.Name(), defs[i].Parameter.Name)
			rec, ok := loaded[trace]
			if !ok {
				continue // checkMergeComplete already refused; stay safe
			}
			fp := shape.Of(defs[i])
			if len(groups[fp]) == 0 {
				order = append(order, fp)
			}
			groups[fp] = append(groups[fp], shardMember{def: defs[i], rec: rec})
		}
		for _, fp := range order {
			if err := normalizeShapeGroup(server.Name(), groups[fp]); err != nil {
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
// flags consolidate onto the builder: one Ran per (shape, client).
func normalizeShapeGroup(server string, group []shardMember) error {
	builderAt := -1
	for i := range group {
		if group[i].rec.Mode != modeBuilt.id() {
			continue
		}
		if builderAt == -1 {
			builderAt = i
			continue
		}
		// Cross-shard consistency: independent builders of one shape must
		// agree on every shape-level fact, or the journals were produced
		// by diverging builds and the merge would be fiction.
		a, b := group[builderAt].rec, group[i].rec
		if a.Published != b.Published || a.Verified != b.Verified ||
			a.Flagged != b.Flagged || a.Compliant != b.Compliant ||
			!equalProfiles(a.Profiles, b.Profiles) {
			return fmt.Errorf("campaign: shard journals disagree on the shape of %s and %s on %s",
				a.Class, b.Class, server)
		}
	}
	if builderAt == -1 {
		// Every shard builds a shape before memo-serving it, so a group
		// whose cells are all memo-served has no owning builder anywhere —
		// mismatched journals.
		return fmt.Errorf("campaign: no shard journaled a builder for the shape of %s on %s",
			group[0].rec.Class, server)
	}
	builder := group[builderAt].rec
	for i := range group {
		if i == builderAt {
			continue
		}
		rec := group[i].rec
		switch rec.Mode {
		case modeDirect.id(), modeFallback.id():
			// Memoizable classes never take these routes; a journal that
			// says otherwise disagrees with this build's shape guard.
			return fmt.Errorf("campaign: journal record %s (%s on %s) took route %q for a memoizable class",
				rec.Trace, rec.Class, server, rec.Mode)
		}
		switch {
		case !builder.Published:
			rec.Mode = modeMemoRejected.id()
			rec.Published, rec.Verified = false, false
			rec.Flagged, rec.Compliant = false, false
			rec.Profiles = nil
			rec.Doc, rec.Tests = nil, nil
		case builder.Verified && substitutionSafe(group[i].def):
			rec.Mode = modeMemoized.id()
			rec.Verified = false
			rec.Doc = nil
			for ti := range rec.Tests {
				rec.Tests[ti].Ran = false
			}
		default:
			// Unverified shape, or name-sensitive WS-I predicates refuse
			// the substitution: the per-class path, executed in full.
			rec.Mode = modeMemoFallback.id()
			rec.Verified = false
			rec.Doc = nil
			for ti := range rec.Tests {
				rec.Tests[ti].Ran = true
			}
		}
	}
	if builder.Published && builder.Verified {
		// The single process's builder executes every client test once;
		// its same-shape clones are all memo-served.
		for ti := range builder.Tests {
			builder.Tests[ti].Ran = true
		}
	}
	return nil
}

// equalProfiles compares two journaled per-profile verdict lists.
// Profile IDs are written in roster order by every shard (the
// fingerprint pins the roster), so element-wise equality is the right
// comparison.
func equalProfiles(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// substitutionSafe reports whether the class's name-derived strings
// pass the WS-I chunk predicates — publishEntry's condition for
// serving a clone from the shape template (DESIGN.md §10).
func substitutionSafe(def services.Definition) bool {
	vars := shape.VarsArray(def)
	return wsi.SubstitutionSafe(vars[shape.SlotService], vars[shape.SlotNamespace], vars[shape.SlotSimple])
}
