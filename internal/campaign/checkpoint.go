package campaign

// This file is the cell journal every campaign mode shares: the
// durable checkpoint store (internal/journal) under WithCheckpoint, one
// record per completed cell from a single writer goroutine, one
// completion sentinel per (shard, server) stage, and — on resume —
// replay of journaled cells into the deterministic fold instead of
// re-executing them (DESIGN.md §9). The static study is the journal's
// "study" axis, at the checkpoint directory's root; each wire axis
// (wireaxis.go) journals under a subdirectory named after it.
//
// The replay contract is exact equivalence: a resumed run's Result,
// dedup statistics, and metrics counters are identical to an
// uninterrupted run's. Two properties carry that for the study:
//
//   - Every record stores its publish route (recordMode) and, per
//     client, whether the test actually executed or was served by the
//     shape memo (the outcome code's executed bit), so replay re-applies
//     the precise counter and histogram contributions the original
//     execution made.
//
//   - The shape memo entries of groups that still have members to run
//     are re-seeded from the journal before the executed remainder
//     starts (seedMemoFromJournal), so remaining classes take exactly
//     the memo paths they would have taken had the run never stopped;
//     a finished group's entry is seeded from its builder record when
//     a later mode first publishes the shape.
//     The counter totals are invariant under *which* class of a shape
//     happens to be the builder: the builder contributes shapes+1 plus
//     the full publish metrics, and every other same-shape class
//     contributes one memo hit — so a shape whose builder record was
//     lost is simply rebuilt by the first executing class, with
//     identical totals.

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
)

// recordMode is the publish route a cell took, mirroring the branches
// of publishLoose and publishEntry. Replay dispatches on it to re-apply the route's exact
// counter contributions.
type recordMode uint8

const (
	modeUnknown      recordMode = iota
	modeDirect                  // memo layer off (the noDedup hook)
	modeFallback                // class failed the shape.Memoizable guard
	modeBuilt                   // first-seen class of its shape: full per-class path
	modeMemoRejected            // memoized NotDeployable outcome
	modeMemoFallback            // shape failed template verification: per-class path
	modeMemoized                // rendered from the shape's verified template
)

// modeIDs names each route in the journal, indexed by recordMode.
var modeIDs = [...]string{
	modeDirect:       "direct",
	modeFallback:     "fallback",
	modeBuilt:        "built",
	modeMemoRejected: "memo-rejected",
	modeMemoFallback: "memo-fallback",
	modeMemoized:     "memoized",
}

func (m recordMode) id() string { return modeIDs[m] }

func parseMode(s string) (recordMode, error) {
	for m := modeDirect; int(m) < len(modeIDs); m++ {
		if modeIDs[m] == s {
			return m, nil
		}
	}
	return modeUnknown, fmt.Errorf("unknown publish mode %q", s)
}

// studyAxis is the static study's identity in the cell journal: one
// column per client, holding the cell's outcomeCode byte as is. Its
// codes name the code's bits, in bit order — classification bits, then
// the executed bit — so a valid code is any value below 1<<len(codes).
// It has no exchange of its own; Run drives it.
var studyAxis = &Axis{name: "study", columns: []string{"test"},
	codes: []string{"gen-warning", "gen-error", "compile-ran", "compile-warning", "compile-error", "executed"}}

// dir is the axis's journal directory under a checkpoint directory:
// the root for the study, a subdirectory for each wire axis.
func (ax *Axis) dir(checkpoint string) string {
	if ax == studyAxis {
		return checkpoint
	}
	return filepath.Join(checkpoint, ax.name)
}

// memoRouted reports whether a record's client tests went through the
// shape memo (testRow's memo branch): the shape's verified builder and
// every template-rendered clone.
func memoRouted(rec *journal.Record) bool {
	return rec.Mode == modeMemoized.id() || (rec.Mode == modeBuilt.id() && rec.Verified)
}

// cellTrace is the journal key of one static service cell.
func cellTrace(server, class string) string { return obs.TraceID(server, class) }

// codeBytes copies a row of outcome codes into journal form.
func codeBytes[C ~uint8](codes []C) []byte {
	b := make([]byte, len(codes))
	for i, c := range codes {
		b[i] = byte(c)
	}
	return b
}

// journalFlushEvery bounds how many appends the checkpoint journal may
// buffer before forcing a durable flush. The writer goroutine normally
// flushes sooner — whenever its queue runs momentarily dry — so this is
// the worst-case window a completed cell can sit non-durable under
// sustained producer pressure.
const journalFlushEvery = 64

// cellJournal is one mode's open journal: the records a resume
// replays, plus the serial writer goroutine that owns every append.
// The merge coordinator's handle is replay-only: it holds the shards'
// records and no journal or writer (j and ch nil).
type cellJournal struct {
	j      *journal.Journal
	loaded map[string]*journal.Record // trace → journaled record
	ch     chan journal.Record
	wg     sync.WaitGroup
	err    error // writer-goroutine only until wg.Wait

	resumed  *obs.Counter // journal.cells.resumed
	executed *obs.Counter // journal.cells.executed
}

// replayJournal is a replay-only handle over loaded records.
func (r *Runner) replayJournal(loaded map[string]*journal.Record) *cellJournal {
	return &cellJournal{
		loaded:   loaded,
		resumed:  r.obs.Counter("journal.cells.resumed"),
		executed: r.obs.Counter("journal.cells.executed"),
	}
}

// checkpointFingerprint content-addresses everything that shapes the
// cell set and its outcomes: the identity shard leases and the plan
// fingerprint derive from, and the base of every journal fingerprint.
// Workers and KeepFailures are deliberately excluded: a journal written
// at one worker count resumes at any other, which the equivalence
// tests exercise.
func (r *Runner) checkpointFingerprint() string {
	parts := []string{
		"wsinterop-campaign-v1",
		"limit=" + strconv.Itoa(r.cfg.Limit),
		"reparse=" + strconv.FormatBool(r.cfg.reparse),
		"nodedup=" + strconv.FormatBool(r.cfg.noDedup),
		"variant=" + strconv.Itoa(int(r.cfg.Variant)),
		"style=" + string(r.cfg.Style),
		"custom-catalog=" + strconv.FormatBool(r.cfg.CatalogFor != nil),
		// The primary profile shapes Flagged/Compliant and the roster
		// shapes the per-profile verdict mask, so a journal written
		// under a different profile configuration must be refused.
		"profile=" + r.checker.Profile().ID,
	}
	for _, p := range r.profiles {
		parts = append(parts, "wsi-profile="+p.ID)
	}
	// The version-scenario catalog and the per-framework strictness
	// table shape every -versions verdict, so journaled version matrices
	// are refused across builds that changed either (the same guard the
	// profile roster gets above).
	for _, sc := range VersionScenarios() {
		parts = append(parts, "version-scenario="+sc.Name)
	}
	for _, s := range r.servers {
		parts = append(parts, "server="+s.Name(),
			"strictness="+framework.VersionStrictness(s.Name()).String())
	}
	for _, c := range r.clients {
		parts = append(parts, "client="+c.Name(),
			"strictness="+framework.VersionStrictness(c.Name()).String())
	}
	return obs.TraceID(parts...)
}

// journalFingerprint pins one mode's journal to the campaign
// configuration and to the mode's column and code catalogs, so a
// journal whose records a changed catalog would misread is refused with
// journal.ErrFingerprint instead.
func (r *Runner) journalFingerprint(ax *Axis) string {
	parts := []string{r.checkpointFingerprint(), "axis=" + ax.name}
	for _, c := range ax.columns {
		parts = append(parts, "column="+c)
	}
	for _, c := range ax.codes {
		parts = append(parts, "code="+c)
	}
	return obs.TraceID(parts...)
}

// shardMeta is the journal identity of this runner's shard; nil for a
// whole-campaign run. Its lease is derived from the configuration
// fingerprint, so a merge refuses a shard journal written for a
// different campaign.
func (r *Runner) shardMeta() (*journal.ShardMeta, error) {
	sh := r.cfg.Shard
	if err := sh.validate(); err != nil {
		return nil, err
	}
	if !sh.enabled() {
		return nil, nil
	}
	lease := shardLease(r.checkpointFingerprint(), sh.Index, sh.Count)
	return &journal.ShardMeta{Index: sh.Index, Count: sh.Count, Lease: lease}, nil
}

// openJournal opens the mode's journal under the WithCheckpoint
// directory (nil without one) and starts its serial writer goroutine.
func (r *Runner) openJournal(ax *Axis) (*cellJournal, error) {
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
	meta := journal.Meta{Fingerprint: r.journalFingerprint(ax), Shard: shard}
	if p := r.plan; p != nil {
		// Provenance only — journal.Open does not compare it on resume;
		// the fingerprint already covers everything the plan is derived
		// from.
		meta.Plan = &journal.PlanMeta{Fingerprint: p.fingerprint, Classes: p.classes, Shapes: p.shapes}
	}
	j, err := journal.Open(ax.dir(r.cfg.Checkpoint), meta, r.cfg.Resume)
	if err != nil {
		return nil, err
	}
	j.AfterAppend = r.cfg.checkpointProbe
	// Group-commit: under load the writer drains whatever the workers
	// have queued and flushes once per batch instead of once per cell,
	// with the journal's own FlushEvery as a ceiling on how long a
	// record can stay buffered. AfterAppend still fires once per record
	// at its durable point, so the kill-point probes are unaffected.
	j.FlushEvery = journalFlushEvery
	cj := r.replayJournal(j.Loaded())
	// The buffer absorbs a burst of completions from every worker while
	// the writer flushes, so a flush rarely stalls the workers.
	cj.j, cj.ch = j, make(chan journal.Record, 256)
	cj.wg.Add(1)
	go cj.write()
	return cj, nil
}

// write is the writer goroutine: it appends each queued record and
// makes everything appended durable whenever the queue runs dry, so a
// burst of completions costs one flush.
func (cj *cellJournal) write() {
	defer cj.wg.Done()
	for rec := range cj.ch {
		if cj.err == nil {
			cj.err = cj.j.Append(rec)
		}
		if cj.err == nil && len(cj.ch) == 0 {
			cj.err = cj.j.Flush()
		}
	}
}

// close stops the writer, flushes, and closes the journal — called
// before a run returns, so an interrupted run exits with every
// completed cell durable. Nil-safe.
func (cj *cellJournal) close() error {
	if cj == nil || cj.ch == nil {
		return nil
	}
	close(cj.ch)
	cj.wg.Wait()
	err := cj.err
	if cerr := cj.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// append hands one completed cell to the writer goroutine; nil-safe so
// call sites need no checkpoint-enabled branch.
func (cj *cellJournal) append(rec journal.Record) {
	if cj == nil {
		return
	}
	cj.executed.Inc()
	if cj.ch != nil {
		cj.ch <- rec
	}
}

// record looks up a journaled record; nil-safe.
func (cj *cellJournal) record(trace string) (*journal.Record, bool) {
	if cj == nil {
		return nil, false
	}
	rec, ok := cj.loaded[trace]
	return rec, ok
}

// completeStage journals the completion sentinel of one server stage
// unless the journal already holds it. Merge completeness keys on it —
// a stage appends it only after every cell of the stage — and it
// carries the stage's path collisions, the one wire fold input not
// reconstructible per service. It is not a cell, so it is not counted.
func (r *Runner) completeStage(cj *cellJournal, ax *Axis, server string, collisions int) {
	if cj == nil || cj.ch == nil {
		return
	}
	trace := ax.sentinel(r.cfg.Shard, server)
	if _, done := cj.loaded[trace]; !done {
		cj.ch <- journal.Record{Trace: trace, Server: server, Mode: ax.complete(), Collisions: collisions}
	}
}

// checkRecord refuses a journaled cell whose codes, tallies or profile
// mask do not fit the mode's catalogs and this roster — before
// anything folds it. The fingerprint pins all of them, so a misfit
// means a damaged or forged store, not a configuration drift.
func (r *Runner) checkRecord(ax *Axis, rec *journal.Record) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("campaign: journal record %s (%s on %s): "+format,
			append([]any{rec.Trace, rec.Class, rec.Server}, args...)...)
	}
	codes, tallies := 0, 0
	if rec.Published {
		codes, tallies = len(r.clients)*len(ax.columns), len(r.clients)*ax.tallies
	}
	switch {
	case len(rec.Codes) != codes:
		return fail("%d outcome codes, want %d (%d clients × %d %s columns)",
			len(rec.Codes), codes, len(r.clients), len(ax.columns), ax.name)
	case len(rec.Tallies) != tallies:
		return fail("%d tallies, want %d", len(rec.Tallies), tallies)
	case rec.Profiles>>len(r.profiles) != 0:
		return fail("profile mask %#x has bits beyond the %d-profile roster", rec.Profiles, len(r.profiles))
	}
	catalog := len(ax.codes)
	if ax == studyAxis {
		catalog = 1 << catalog
	}
	for i, c := range rec.Codes {
		if int(c) >= catalog {
			return fail("code %d in slot %d is past the %d-code %s catalog", c, i, catalog, ax.name)
		}
	}
	return nil
}

// journalService records one fully tested service cell: its publish
// slot and its row of outcome codes.
func (r *Runner) journalService(s *publishSlot, codes []outcomeCode) {
	if r.ckpt == nil {
		return
	}
	svc := &s.svc
	rec := journal.Record{
		Trace:     cellTrace(svc.Server, svc.Class),
		Server:    svc.Server,
		Class:     svc.Class,
		Mode:      s.mode.id(),
		Published: true,
		Verified:  s.verified,
		Flagged:   svc.Flagged,
		Compliant: svc.Compliant,
		Profiles:  svc.Profiles,
		Codes:     codeBytes(codes),
	}
	if s.mode == modeBuilt && s.verified && !svc.memo.solo {
		// Only the verified builder of a multi-member shape carries its
		// document: a resume that still has members of the shape to run
		// re-splits the template from it. A solo shape has nobody left to
		// render, and an unverified one never seeds a template.
		rec.Doc = svc.Doc
	}
	r.ckpt.append(rec)
}

// journalClone records one broadcast-resolved clone cell. Field-for-
// field what journalService writes for a memoized service: published,
// unverified (clones never byte-verify), the entry's flagged and
// compliance verdicts, and the representative's outcome row with the
// executed bits already cleared by the caller (shared, read-only, by
// every clone of the broadcast).
func (r *Runner) journalClone(server, class string, e *shapeEntry, codes []byte) {
	if r.ckpt == nil {
		return
	}
	r.ckpt.append(journal.Record{
		Trace:     cellTrace(server, class),
		Server:    server,
		Class:     class,
		Mode:      modeMemoized.id(),
		Published: true,
		Flagged:   e.flagged,
		Compliant: e.compliant,
		Profiles:  e.profiles,
		Codes:     codes,
	})
}

// journalRejected records a service the description step rejected —
// also a completed cell: resume must not re-publish it.
func (r *Runner) journalRejected(server framework.ServerFramework, def services.Definition, slot publishSlot) {
	if r.ckpt == nil {
		return
	}
	r.ckpt.append(journal.Record{
		Trace:  cellTrace(server.Name(), def.Parameter.Name),
		Server: server.Name(),
		Class:  def.Parameter.Name,
		Mode:   slot.mode.id(),
	})
}

// replayPlan maps this stage's definition indexes to their journaled
// cells, each checked against the study's catalogs; nil when nothing
// of this stage was journaled.
func (r *Runner) replayPlan(server framework.ServerFramework, defs []services.Definition) (map[int]*journal.Record, error) {
	cj := r.ckpt
	if cj == nil || len(cj.loaded) == 0 {
		return nil, nil
	}
	plan := make(map[int]*journal.Record, min(len(defs), len(cj.loaded)))
	for i := range defs {
		if rec, ok := cj.loaded[cellTrace(server.Name(), defs[i].Parameter.Name)]; ok {
			if err := r.checkRecord(studyAxis, rec); err != nil {
				return nil, err
			}
			plan[i] = rec
		}
	}
	if len(plan) == 0 {
		return nil, nil
	}
	return plan, nil
}

// seedMemoFromJournal reconstructs the shape memo state of the stage's
// journaled shape groups. In a group with work left, the builder record
// rebuilds the full entry (seedBuilder) before any member runs;
// memo-routed records whose builder was not journaled get a skeleton
// entry (once untouched), so the first executing class becomes the
// builder exactly as some class was in the interrupted run. A group
// with every member journaled has nothing left to run in this stage, so
// its entry only keeps the builder record: the first later publish of
// the shape (a wire mode's Publish) seeds from it (publishEntry), and a
// resumed wire stage neither re-checks nor re-tests a shape the study
// finished, while a study resume that publishes nothing seeds nothing.
// Journaled executed outcomes seed the entry's test row, so each
// (shape, client) test executes at most once across the whole resumed
// campaign.
func (r *Runner) seedMemoFromJournal(server framework.ServerFramework, sp *serverPlan, plan map[int]*journal.Record) error {
	d := r.dedup
	d.mu.Lock()
	defer d.mu.Unlock()
	for gi := range sp.Groups {
		g := &sp.Groups[gi]
		done, builderAt := 0, -1
		for _, di := range g.Members {
			if rec, ok := plan[di]; ok {
				done++
				// At most one builder per shape in any journal, since a
				// session only builds unseeded shapes.
				if builderAt < 0 && rec.Mode == modeBuilt.id() {
					builderAt = di
				}
			}
		}
		if done == 0 {
			continue
		}
		key := shapeKey{server: server.Name(), fp: g.fp}
		e := d.entries[key]
		if e == nil {
			e = r.newEntry(g)
			d.entries[key] = e
			if builderAt >= 0 {
				e.seed, e.seedDef = plan[builderAt], &sp.defs[builderAt]
			}
		}
		for _, di := range g.Members {
			rec := plan[di]
			if rec == nil || !rec.Published || !memoRouted(rec) {
				continue
			}
			for ci, c := range rec.Codes {
				if code := outcomeCode(c); code.executed() && e.row.codes[ci] == 0 {
					e.row.codes[ci] = code
				}
			}
		}
		if e.seed != nil && done < len(g.Members) {
			var err error
			e.once.Do(func() { err = r.seedBuilder(e, server) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// seedBuilder builds e from its journaled builder (e.seed), under e's
// once, so no executing class rebuilds (and double-counts) the shape:
// a multi-member shape's template is re-split from the journaled
// document and re-verified byte-for-byte; a solo shape, whose builder
// journals no document, re-publishes its typed representative.
func (r *Runner) seedBuilder(e *shapeEntry, server framework.ServerFramework) error {
	rec, def := e.seed, *e.seedDef
	e.seed, e.seedDef = nil, nil
	if !rec.Published {
		e.rejected = true
		return nil
	}
	e.flagged, e.compliant, e.profiles = rec.Flagged, rec.Compliant, rec.Profiles
	if !rec.Verified {
		return nil
	}
	fail := func(what string) error {
		return fmt.Errorf("campaign: journal record %s (%s on %s): %s", rec.Trace, rec.Class, rec.Server, what)
	}
	rep := PublishedService{
		Server:    rec.Server,
		Class:     rec.Class,
		Doc:       rec.Doc,
		Flagged:   rec.Flagged,
		Compliant: rec.Compliant,
		Profiles:  e.profiles,
		analysis:  &sharedAnalysis{},
		memo:      e,
	}
	if e.solo {
		doc, err := server.Publish(def)
		if err != nil {
			return fail("the journaled shape no longer publishes")
		}
		if rep.Doc, err = r.repBytes(e, doc, false); err != nil {
			return fail(err.Error())
		}
		e.seedRep(rep, doc)
		return nil
	}
	if len(rec.Doc) == 0 {
		return fail("verified builder without a document")
	}
	if e.tmpl = r.splitShape(server, def, rec.Doc); e.tmpl == nil {
		return fail("shape template no longer reproduces the journaled document")
	}
	e.rep = rep
	return nil
}

// replayCell re-applies one journaled cell (already checked by
// replayPlan) in place of executing it: its route's counter and
// histogram contributions go through the same ledger the live routes
// use, with zero spans (matching a frozen-clock run), and its outcome
// codes fill its definition's slot for the fold. A record's executed
// tests are one test row (runRow), so the generate and compile
// histograms observe once per record with an executed code.
func (r *Runner) replayCell(st *studyStage, di int, rec *journal.Record) {
	mode, err := parseMode(rec.Mode)
	if err != nil {
		st.fail(di, fmt.Errorf("campaign: journal record %s (%s on %s): %w", rec.Trace, rec.Class, rec.Server, err))
		return
	}
	r.creditPublish(mode, rec.Published, rec.Flagged, 1, 0, 0)
	if rec.Published {
		codes := st.row(di)
		var t rowTally
		for ci, c := range rec.Codes {
			if codes[ci] = outcomeCode(c); codes[ci].executed() {
				t.add(codes[ci])
			}
		}
		r.creditTests(memoRouted(rec), int64(len(codes)), t.gens)
		r.met.creditRow(t, 0, 0)
		st.cells[di] = studyCell{published: true, flagged: rec.Flagged, profiles: rec.Profiles}
	}
	r.ckpt.resumed.Inc()
	st.prog.serviceDone()
}
