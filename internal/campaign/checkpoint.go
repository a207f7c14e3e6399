package campaign

// This file wires the durable checkpoint store (internal/journal) into
// the campaign runner: recording one journal record per completed cell
// from a single writer goroutine, and — on resume — replaying
// journaled cells into the deterministic merge instead of re-executing
// them (DESIGN.md §9).
//
// The replay contract is exact equivalence: a resumed run's Result,
// dedup statistics, and metrics counters are identical to an
// uninterrupted run's. Two properties carry that:
//
//   - Every record stores its publish route (recordMode) and, per
//     client, whether the test actually executed or was served by the
//     shape memo, so replay re-applies the precise counter and
//     histogram contributions the original execution made.
//
//   - The shape memo entries of groups that still have members to run
//     are re-seeded from the journal before the executed remainder
//     starts (seedMemoFromJournal), so remaining classes take exactly
//     the memo paths they would have taken had the run never stopped.
//     The counter totals are invariant under *which* class of a shape
//     happens to be the builder: the builder contributes shapes+1 plus
//     the full publish metrics, and every other same-shape class
//     contributes one memo hit — so a shape whose builder record was
//     lost is simply rebuilt by the first executing class, with
//     identical totals.

import (
	"fmt"
	"sort"
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

var modeIDs = map[recordMode]string{
	modeDirect:       "direct",
	modeFallback:     "fallback",
	modeBuilt:        "built",
	modeMemoRejected: "memo-rejected",
	modeMemoFallback: "memo-fallback",
	modeMemoized:     "memoized",
}

func (m recordMode) id() string { return modeIDs[m] }

func parseMode(s string) (recordMode, error) {
	for m, id := range modeIDs {
		if id == s {
			return m, nil
		}
	}
	return modeUnknown, fmt.Errorf("unknown publish mode %q", s)
}

// memoRouted reports whether a record's client tests went through the
// shape memo (testFor's memo branch): the shape's verified builder and
// every template-rendered clone.
func memoRouted(rec *journal.Record) bool {
	return rec.Mode == modeMemoized.id() || (rec.Mode == modeBuilt.id() && rec.Verified)
}

// cellTrace is the journal key of one service cell.
func cellTrace(server, class string) string { return obs.TraceID(server, class) }

// journalFlushEvery bounds how many appends the checkpoint journal may
// buffer before forcing a durable flush. The writer goroutine normally
// flushes sooner — whenever its queue runs momentarily dry — so this is
// the worst-case window a completed cell can sit non-durable under
// sustained producer pressure.
const journalFlushEvery = 64

// checkpointState is one Run's open journal plus the serial writer
// goroutine that owns every append.
type checkpointState struct {
	j      *journal.Journal
	loaded map[string]*journal.Record // resume: trace → journaled cell
	ch     chan journal.Record
	wg     sync.WaitGroup
	err    error // writer-goroutine only until wg.Wait

	resumed  *obs.Counter // journal.cells.resumed
	executed *obs.Counter // journal.cells.executed
}

// checkpointFingerprint content-addresses everything that shapes the
// cell set and its outcomes. Workers and KeepFailures are deliberately
// excluded: a journal written at one worker count resumes at any
// other, which the equivalence tests exercise.
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
		// shapes the per-profile verdict lists, so a journal written
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

// shardMeta is the journal identity of this runner's shard lease; nil
// for a whole-campaign run. The lease is (re)derived from the
// configuration fingerprint, and a caller-supplied lease that was
// minted for a different campaign is refused — the lease check that
// keeps a planned spec bound to its configuration.
func (r *Runner) shardMeta() (*journal.ShardMeta, error) {
	sh := r.cfg.Shard
	if err := sh.validate(); err != nil {
		return nil, err
	}
	if !sh.enabled() {
		return nil, nil
	}
	lease := shardLease(r.checkpointFingerprint(), sh.Index, sh.Count)
	if sh.Lease != "" && sh.Lease != lease {
		return nil, fmt.Errorf("campaign: shard lease %s was issued for a different campaign configuration", sh.Lease)
	}
	return &journal.ShardMeta{Index: sh.Index, Count: sh.Count, Lease: lease}, nil
}

// openCheckpoint opens the journal configured by WithCheckpoint (a
// no-op without one) and starts the serial writer goroutine.
func (r *Runner) openCheckpoint() error {
	shard, err := r.shardMeta()
	if err != nil {
		return err
	}
	if r.cfg.Checkpoint == "" {
		if r.cfg.Resume {
			return fmt.Errorf("campaign: Resume requires a Checkpoint directory")
		}
		return nil
	}
	meta := journal.Meta{Fingerprint: r.checkpointFingerprint(), Shard: shard}
	if p := r.plan; p != nil {
		// Provenance only — journal.Open does not compare it on resume;
		// the checkpoint fingerprint already covers everything the plan
		// is derived from.
		meta.Plan = &journal.PlanMeta{Fingerprint: p.fingerprint, Classes: p.classes, Shapes: p.shapes}
	}
	j, err := journal.Open(r.cfg.Checkpoint, meta, r.cfg.Resume)
	if err != nil {
		return err
	}
	j.AfterAppend = r.cfg.checkpointProbe
	// Group-commit: under load the writer drains whatever the workers
	// have queued and flushes once per batch instead of once per cell,
	// with the journal's own FlushEvery as a ceiling on how long a
	// record can stay buffered. AfterAppend still fires once per record
	// at its durable point, so the kill-point probes are unaffected.
	j.FlushEvery = journalFlushEvery
	cs := &checkpointState{
		j:        j,
		ch:       make(chan journal.Record, 256),
		resumed:  r.obs.Counter("journal.cells.resumed"),
		executed: r.obs.Counter("journal.cells.executed"),
	}
	if r.cfg.Resume {
		cs.loaded = j.Loaded()
	}
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		for rec := range cs.ch {
			if cs.err != nil {
				continue // keep draining so producers never block
			}
			cs.err = cs.j.Append(rec)
			// Opportunistically absorb everything already queued, then
			// make the whole batch durable in one flush.
		drain:
			for cs.err == nil {
				select {
				case more, ok := <-cs.ch:
					if !ok {
						break drain
					}
					cs.err = cs.j.Append(more)
				default:
					break drain
				}
			}
			if cs.err == nil {
				cs.err = cs.j.Flush()
			}
		}
	}()
	r.ckpt = cs
	return nil
}

// closeCheckpoint stops the writer, flushes, and closes the journal —
// always called before Run returns, so an interrupted run exits with
// every completed cell durable.
func (r *Runner) closeCheckpoint() error {
	cs := r.ckpt
	if cs == nil {
		return nil
	}
	r.ckpt = nil
	close(cs.ch)
	cs.wg.Wait()
	err := cs.err
	if cerr := cs.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// append hands one completed cell to the writer goroutine; nil-safe so
// call sites need no checkpoint-enabled branch. A replay-only state —
// the merge coordinator's, which has no journal of its own — counts
// the cell but has nowhere to write it.
func (cs *checkpointState) append(rec journal.Record) {
	if cs == nil {
		return
	}
	cs.executed.Inc()
	if cs.ch == nil {
		return
	}
	cs.ch <- rec
}

// journalService records one fully tested service cell.
func (r *Runner) journalService(st *svcState) {
	if r.ckpt == nil {
		return
	}
	svc := &st.svc
	rec := journal.Record{
		Trace:     cellTrace(svc.Server, svc.Class),
		Server:    svc.Server,
		Class:     svc.Class,
		Mode:      st.mode.id(),
		Published: true,
		Verified:  st.verified,
		Flagged:   svc.Flagged,
		Compliant: svc.Compliant,
		Profiles:  r.profileIDs(svc.Profiles),
		Tests:     r.testRecords(st.codes),
	}
	if st.mode == modeBuilt && st.verified && !svc.memo.solo {
		// Only the verified builder of a multi-member shape carries its
		// document: a resume that still has members of the shape to run
		// re-splits the template from it. A solo shape has nobody left to
		// render, and an unverified one never seeds a template.
		rec.Doc = svc.Doc
	}
	r.ckpt.append(rec)
}

// testRecords expands a columnar outcome row into journal form.
func (r *Runner) testRecords(codes []outcomeCode) []journal.TestRecord {
	recs := make([]journal.TestRecord, len(r.clients))
	for ci := range r.clients {
		code := codes[ci]
		recs[ci] = journal.TestRecord{
			Client:         r.clients[ci].Name(),
			Ran:            code.executed(),
			GenWarning:     code&codeGenWarning != 0,
			GenError:       code&codeGenError != 0,
			CompileRan:     code&codeCompileRan != 0,
			CompileWarning: code&codeCompileWarning != 0,
			CompileError:   code&codeCompileError != 0,
		}
	}
	return recs
}

// journalClone records one broadcast-resolved clone cell. Field-for-
// field what journalService writes for a memoized service: published,
// unverified (clones never byte-verify), the entry's flagged and
// compliance verdicts, and the representative's outcome row with the
// executed bits already cleared by the caller.
func (r *Runner) journalClone(server, class string, e *shapeEntry, codes []outcomeCode) {
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
		Profiles:  r.profileIDs(e.profiles),
		Tests:     r.testRecords(codes),
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
// cells; nil when nothing of this stage was journaled.
func (r *Runner) replayPlan(server framework.ServerFramework, defs []services.Definition) map[int]*journal.Record {
	cs := r.ckpt
	if cs == nil || len(cs.loaded) == 0 {
		return nil
	}
	plan := make(map[int]*journal.Record, min(len(defs), len(cs.loaded)))
	for i := range defs {
		if rec, ok := cs.loaded[cellTrace(server.Name(), defs[i].Parameter.Name)]; ok {
			plan[i] = rec
		}
	}
	if len(plan) == 0 {
		return nil
	}
	return plan
}

// seedMemoFromJournal reconstructs the shape memo state of the stage's
// unfinished shape groups. A group with every member journaled has
// nothing left to run, so it is not seeded: its cells replay and its
// entry stays unbuilt until something publishes the shape again. In a
// group with work left, the builder record rebuilds the full entry
// (seedBuilder); memo-routed records whose builder was not journaled
// get a skeleton entry (once untouched), so the first executing class
// becomes the builder exactly as some class was in the interrupted run.
// Journaled Ran outcomes seed the per-client test memo slots, so each
// (shape, client) test executes at most once across the whole resumed
// campaign.
func (r *Runner) seedMemoFromJournal(server framework.ServerFramework, sp *serverPlan, plan map[int]*journal.Record) error {
	d := r.dedup
	d.mu.Lock()
	defer d.mu.Unlock()
	for gi := range sp.Groups {
		g := &sp.Groups[gi]
		var done []int
		for _, di := range g.Members {
			if _, ok := plan[di]; ok {
				done = append(done, di)
			}
		}
		if len(done) == 0 || len(done) == len(g.Members) {
			continue
		}
		key := shapeKey{server: server.Name(), fp: g.fp}
		e := d.entries[key]
		// At most one builder per shape in any journal, since a session
		// only builds unseeded shapes.
		for _, di := range done {
			if rec := plan[di]; e == nil && rec.Mode == modeBuilt.id() {
				var err error
				if e, err = r.seedBuilder(server, sp.defs[di], rec); err != nil {
					return err
				}
				d.entries[key] = e
			}
		}
		for _, di := range done {
			rec := plan[di]
			if !rec.Published || !memoRouted(rec) {
				continue
			}
			if len(rec.Tests) != len(r.clients) {
				return fmt.Errorf("campaign: journal record %s: %d client tests, roster has %d", rec.Trace, len(rec.Tests), len(r.clients))
			}
			if e == nil {
				e = &shapeEntry{tests: make([]testMemo, len(r.clients))}
				d.entries[key] = e
			}
			for ci, tr := range rec.Tests {
				if tr.Client != r.clients[ci].Name() {
					return fmt.Errorf("campaign: journal record %s: test %d is for client %q, roster has %q", rec.Trace, ci, tr.Client, r.clients[ci].Name())
				}
				if tr.Ran {
					tm, code := &e.tests[ci], encodeRecord(tr)
					tm.once.Do(func() { tm.code = code })
				}
			}
		}
	}
	return nil
}

// seedBuilder rebuilds a shape entry from its journaled builder: the
// template is re-split from the journaled document and re-verified
// byte-for-byte, and the entry's once is consumed so no executing class
// rebuilds (and double-counts) the shape.
func (r *Runner) seedBuilder(server framework.ServerFramework, def services.Definition, rec *journal.Record) (*shapeEntry, error) {
	e := &shapeEntry{tests: make([]testMemo, len(r.clients))}
	e.once.Do(func() {})
	if !rec.Published {
		e.rejected = true
		return e, nil
	}
	e.flagged, e.compliant = rec.Flagged, rec.Compliant
	e.profiles = r.profileMask(rec.Profiles)
	if !rec.Verified {
		return e, nil
	}
	if len(rec.Doc) == 0 {
		return nil, fmt.Errorf("campaign: journal record %s (%s on %s): verified builder without a document", rec.Trace, rec.Class, rec.Server)
	}
	if e.tmpl = r.splitShape(server, def, rec.Doc); e.tmpl == nil {
		return nil, fmt.Errorf("campaign: journal record %s (%s on %s): shape template no longer reproduces the journaled document", rec.Trace, rec.Class, rec.Server)
	}
	e.rep = PublishedService{
		Server:    rec.Server,
		Class:     rec.Class,
		Doc:       rec.Doc,
		Flagged:   rec.Flagged,
		Compliant: rec.Compliant,
		Profiles:  e.profiles,
		analysis:  &sharedAnalysis{},
		memo:      e,
	}
	return e, nil
}

// replayStage replays every journaled cell of one server stage into a
// dedicated replay shard and returns it. Cells are independent — the
// counters they re-apply are atomic and each fold lands in a private
// per-slice shard — so replay runs across the worker pool in
// contiguous index slices and the slice shards tree-merge; the old
// serial replay loop was the dominant cost of resuming (and of every
// distributed Merge, which replays the entire campaign).
func (r *Runner) replayStage(server framework.ServerFramework, replay map[int]*journal.Record,
	failures [][]TestResult, prog *progress) (*shard, error) {
	idxs := make([]int, 0, len(replay))
	for i := range replay {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	workers := r.workers()
	if workers > len(idxs) {
		workers = len(idxs)
	}
	shards := make([]*shard, workers)
	errs := make([]error, workers)
	chunk := (len(idxs) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sh := newShard(len(r.clients), len(r.profiles))
		shards[w] = sh
		lo := w * chunk
		hi := lo + chunk
		if hi > len(idxs) {
			hi = len(idxs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, slice []int, sh *shard) {
			defer wg.Done()
			for _, i := range slice {
				st, err := r.replayService(replay[i])
				if err != nil {
					if errs[w] == nil {
						errs[w] = err
					}
					return
				}
				r.ckpt.resumed.Inc()
				if st != nil {
					fails := r.foldService(st, sh)
					if failures != nil {
						failures[i] = fails
					}
				}
				prog.serviceDone()
			}
		}(w, idxs[lo:hi], sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.obs.Emit(obs.Event{
		Trace:  obs.TraceID(server.Name(), "resume"),
		Stage:  "resume",
		Server: server.Name(),
		Detail: fmt.Sprintf("%d cells replayed from journal", len(replay)),
	})
	return mergeShards(shards), nil
}

// replayService re-applies one journaled cell: the exact counter and
// histogram contributions its original execution made (stage latencies
// observe zero, matching a frozen-clock run), and the reconstructed
// per-client results for the deterministic fold. Returns nil state for
// a cell rejected at the description step.
func (r *Runner) replayService(rec *journal.Record) (*svcState, error) {
	mode, err := parseMode(rec.Mode)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal record %s: %w", rec.Trace, err)
	}
	m, d := r.met, r.dedup
	m.publishTotal.Inc()
	switch mode {
	case modeDirect:
		r.replayDirectPublish(rec)
	case modeFallback:
		d.fallbacks.Add(1)
		m.publishFallback.Inc()
		r.replayDirectPublish(rec)
	case modeBuilt:
		d.pubTotal.Add(1)
		d.shapes.Add(1)
		r.replayDirectPublish(rec)
	case modeMemoFallback:
		d.pubTotal.Add(1)
		d.fallbacks.Add(1)
		m.publishFallback.Inc()
		r.replayDirectPublish(rec)
	case modeMemoRejected, modeMemoized:
		d.pubTotal.Add(1)
		d.pubHits.Add(1)
		m.publishMemoized.Inc()
		if rec.Published {
			m.wsiMemoized.Inc()
		}
	}
	if !rec.Published {
		return nil, nil
	}
	if len(rec.Tests) != len(r.clients) {
		return nil, fmt.Errorf("campaign: journal record %s: %d client tests, roster has %d", rec.Trace, len(rec.Tests), len(r.clients))
	}
	memoed := memoRouted(rec)
	st := &svcState{
		svc: PublishedService{
			Server:    rec.Server,
			Class:     rec.Class,
			Doc:       rec.Doc,
			Flagged:   rec.Flagged,
			Compliant: rec.Compliant,
			Profiles:  r.profileMask(rec.Profiles),
			analysis:  &sharedAnalysis{},
		},
		mode:     mode,
		verified: rec.Verified,
		codes:    make([]outcomeCode, len(r.clients)),
	}
	for ci := range rec.Tests {
		tr := rec.Tests[ci]
		if tr.Client != r.clients[ci].Name() {
			return nil, fmt.Errorf("campaign: journal record %s: test %d is for client %q, roster has %q", rec.Trace, ci, tr.Client, r.clients[ci].Name())
		}
		m.testTotal.Inc()
		if memoed {
			d.testTotal.Add(1)
			if tr.Ran {
				d.testRuns.Add(1)
			} else {
				m.testMemoized.Inc()
			}
		}
		if tr.Ran {
			m.genSeconds.Observe(0)
			m.genRuns.Inc()
			if tr.GenError {
				m.genErrors.Inc()
			}
			if tr.CompileRan {
				m.compileSeconds.Observe(0)
				m.compileRuns.Inc()
				if tr.CompileError {
					m.compileErrors.Inc()
				}
			}
		}
		st.codes[ci] = encodeRecord(tr)
	}
	return st, nil
}

// replayDirectPublish re-applies the publishDirect / buildShape
// metric contributions: a publish latency observation always, and the
// WS-I check when the document was published.
func (r *Runner) replayDirectPublish(rec *journal.Record) {
	m := r.met
	m.publishSeconds.Observe(0)
	if !rec.Published {
		m.publishRejected.Inc()
		return
	}
	m.wsiSeconds.Observe(0)
	m.wsiChecks.Inc()
	if rec.Flagged {
		m.wsiFlagged.Inc()
	}
}
