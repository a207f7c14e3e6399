package campaign

// Shape-first planned execution (DESIGN.md §12). The shape partition of
// a catalog is a deterministic function of the campaign configuration,
// so the planner computes it once, up front, into an immutable plan:
// per server, the catalog's definition indexes grouped by shape
// fingerprint, each group's builder designated (the first member in
// catalog order), and the members whose names fail the substitution-
// safety predicates marked for the per-class path. The plan is the
// campaign's only shape-discovery path: Run and Publish (and with it
// the communication, robustness and versions modes) all execute over
// it.
//
// Workers own whole groups, so the memo table mutex is taken exactly
// once per stage (resolveEntries), and once a group's representative
// outcomes exist the remaining safe clones are a pure columnar
// broadcast — one multiplied fold of the representative's outcome
// codes (foldCodes), with counters batched per group instead of bumped
// per class.
//
// The plan is bookkeeping, never authority: builders still publish,
// byte-verify their templates, and execute real client tests through
// the memo code (publishEntry/testRow), so the §6.6 guarantee —
// memoization can never change a Result — holds unchanged;
// TestDedupEquivalenceFull proves it against the per-class noDedup
// path at full scale.

import (
	"context"
	"fmt"
	"sync"

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
	"wsinterop/internal/obs"
	"wsinterop/internal/services"
	"wsinterop/internal/shape"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsi"
)

// planGroup is one (server, shape) work unit: the definition indexes
// of every same-shape class, in catalog order. Members[0] is the
// designated builder — it runs the full per-class path (publish,
// marshal, WS-I check, template verification, all client tests) and
// the group's remaining safe members broadcast its outcomes.
type planGroup struct {
	fp      shape.Fingerprint
	Members []int
	// safe is parallel to Members: false marks a class whose names fail
	// the substitution-safety predicates, so it takes the per-class path.
	safe []bool
}

// serverPlan is one server's stage plan: a partition of the catalog's
// definition indexes into shape groups plus the loose remainder —
// classes the memo layer cannot serve (shape.Memoizable failures, or
// every class under the noDedup ablation). Servers of one language
// share the partition (Groups, Loose and defs alias one immutable
// catalog partition); only Server differs.
type serverPlan struct {
	Server string
	Defs   int
	Groups []planGroup
	Loose  []int

	// defs is the definition list the plan was built against, retained
	// so the stage need not regenerate it.
	defs []services.Definition
}

// campaignPlan is the immutable whole-campaign execution plan.
type campaignPlan struct {
	fingerprint string
	servers     map[string]*serverPlan
	order       []string
	classes     int
	shapes      int
	source      string // "built" or "shared"
}

// Plan is an opaque handle to a resolved execution plan. A plan is
// immutable and content-addressed by the campaign configuration, so
// one runner may build it and any number of later runners with the
// identical configuration may adopt it (AdoptPlan), skipping the
// catalog walk and hash pass entirely — the steady state of the
// campaign daemon and of repeated benchmark runs.
type Plan struct {
	p *campaignPlan
}

// Fingerprint returns the configuration fingerprint the plan was
// resolved for.
func (p *Plan) Fingerprint() string {
	if p == nil || p.p == nil {
		return ""
	}
	return p.p.fingerprint
}

// ExecutionPlan resolves the runner's plan (building it if it has not
// been resolved yet) and returns a shareable handle.
func (r *Runner) ExecutionPlan() (*Plan, error) {
	p, err := r.ensurePlan()
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// PlanFingerprint returns the fingerprint the runner's plan resolves
// to, or "" when the configuration cannot share plans (a custom
// CatalogFor, whose catalogs the fingerprint cannot address).
func (r *Runner) PlanFingerprint() string {
	if r.cfg.CatalogFor != nil {
		return ""
	}
	return r.planFingerprint()
}

// AdoptPlan installs a plan resolved by another runner with the same
// configuration. It must be called before Run. The fingerprint check
// makes adoption safe: a plan for any other configuration is refused,
// so a wrong plan can never execute.
func (r *Runner) AdoptPlan(p *Plan) error {
	if p == nil || p.p == nil {
		return fmt.Errorf("campaign: cannot adopt a nil plan")
	}
	if r.cfg.CatalogFor != nil {
		return fmt.Errorf("campaign: custom catalogs cannot share plans")
	}
	if fp := r.planFingerprint(); p.p.fingerprint != fp {
		return fmt.Errorf("campaign: shared plan fingerprint %s does not match this configuration (%s)", p.p.fingerprint, fp)
	}
	r.sharedPlan = p.p
	return nil
}

// planFingerprint content-addresses everything the plan depends on:
// the campaign configuration fingerprint (roster, limit, variant,
// style, ablations) plus the shard slice, which changes defsFor's
// output. Workers are excluded — a plan is execution-shape, not
// schedule.
func (r *Runner) planFingerprint() string {
	return obs.TraceID("wsinterop-plan-v1", r.checkpointFingerprint(), r.cfg.Shard.String())
}

// ensurePlan resolves the runner's execution plan exactly once: the
// adopted plan when there is one, built from the catalog otherwise.
func (r *Runner) ensurePlan() (*campaignPlan, error) {
	r.planOnce.Do(func() { r.plan, r.planErr = r.resolvePlan() })
	return r.plan, r.planErr
}

// planFor returns one server's stage plan.
func (r *Runner) planFor(server framework.ServerFramework) (*serverPlan, error) {
	p, err := r.ensurePlan()
	if err != nil {
		return nil, err
	}
	sp := p.servers[server.Name()]
	if sp == nil {
		return nil, fmt.Errorf("campaign: plan has no stage for server %s", server.Name())
	}
	return sp, nil
}

func (r *Runner) resolvePlan() (*campaignPlan, error) {
	if sp := r.sharedPlan; sp != nil {
		// AdoptPlan already proved the fingerprint matches. Shallow-copy
		// so the shared immutable body keeps its original source label.
		r.met.planShared.Inc()
		cp := *sp
		cp.source = "shared"
		return &cp, nil
	}
	p, err := r.buildPlan(r.planFingerprint())
	if err != nil {
		return nil, err
	}
	r.met.planBuilds.Inc()
	return p, nil
}

// buildPlan walks every catalog once and partitions it into shape
// groups. The partition depends only on the definition list, which is
// a function of the server's language (defsFor), so servers of one
// language share one partition: the two Java servers' plans hold the
// same immutable Groups and Loose. The per-class fingerprint and
// safety computations are spread over the worker pool; grouping itself
// is a single cheap pass.
func (r *Runner) buildPlan(fp string) (*campaignPlan, error) {
	p := &campaignPlan{
		fingerprint: fp,
		servers:     make(map[string]*serverPlan, len(r.servers)),
		source:      "built",
	}
	parts := make(map[typesys.Language]*serverPlan)
	for _, server := range r.servers {
		part := parts[server.Language()]
		if part == nil {
			defs, err := r.defsFor(server)
			if err != nil {
				return nil, fmt.Errorf("publish on %s: %w", server.Name(), err)
			}
			part = r.partition(defs)
			parts[server.Language()] = part
		}
		sp := *part
		sp.Server = server.Name()
		p.servers[sp.Server] = &sp
		p.order = append(p.order, sp.Server)
		p.classes += sp.Defs
		p.shapes += len(sp.Groups)
	}
	return p, nil
}

// classTraits is the precomputed per-definition input of grouping.
type classTraits struct {
	fp         shape.Fingerprint
	memoizable bool
	safe       bool
	group      int // index into the partition's groups, once grouped
}

// partition groups one catalog's definitions by shape fingerprint. The
// result is shared by every server of the catalog's language, so it
// carries no server name, and nothing mutates it once built.
func (r *Runner) partition(defs []services.Definition) *serverPlan {
	sp := &serverPlan{Defs: len(defs), defs: defs}
	if !r.dedupOn() {
		// noDedup: every class is loose; the executor routes them direct.
		sp.Loose = make([]int, len(defs))
		for i := range sp.Loose {
			sp.Loose[i] = i
		}
		return sp
	}
	traits := r.classTraitsFor(defs)
	index := make(map[shape.Fingerprint]int)
	var sizes []int
	for i := range defs {
		t := &traits[i]
		if !t.memoizable {
			sp.Loose = append(sp.Loose, i)
			continue
		}
		gi, ok := index[t.fp]
		if !ok {
			gi = len(sp.Groups)
			index[t.fp] = gi
			sp.Groups = append(sp.Groups, planGroup{fp: t.fp})
			sizes = append(sizes, 0)
		}
		t.group = gi
		sizes[gi]++
	}
	// Every group's members are carved from one backing array, sized by
	// the counting pass, so grouping allocates per catalog, not per group.
	n := len(defs) - len(sp.Loose)
	members, safe := make([]int, 0, n), make([]bool, 0, n)
	off := 0
	for gi, size := range sizes {
		g := &sp.Groups[gi]
		g.Members, g.safe = members[off:off:off+size], safe[off:off:off+size]
		off += size
	}
	for i := range defs {
		if t := &traits[i]; t.memoizable {
			g := &sp.Groups[t.group]
			g.Members = append(g.Members, i)
			g.safe = append(g.safe, t.safe)
		}
	}
	return sp
}

// substitutionSafe reports whether the class's name-derived strings
// pass the WS-I chunk predicates — publishEntry's condition for
// serving a clone from the shape template (DESIGN.md §10).
func substitutionSafe(def services.Definition) bool {
	return substitutionSafeVars(shape.VarsArray(def))
}

func substitutionSafeVars(vars [3]string) bool {
	return wsi.SubstitutionSafe(vars[shape.SlotService], vars[shape.SlotNamespace], vars[shape.SlotSimple])
}

// classTraitsFor hashes and classifies every definition across the
// worker pool — the SHA-256 pass that used to run inside the execution
// hot path, once per class per run.
func (r *Runner) classTraitsFor(defs []services.Definition) []classTraits {
	traits := make([]classTraits, len(defs))
	workers := r.workers()
	if workers > len(defs) {
		workers = len(defs)
	}
	if workers <= 1 {
		for i := range defs {
			fillTraits(&traits[i], defs[i])
		}
		return traits
	}
	chunk := (len(defs) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(defs) {
			hi = len(defs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fillTraits(&traits[i], defs[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return traits
}

// fillTraits classifies one definition, deriving its name-derived
// strings once for both the memo guard and the WS-I chunk predicates.
func fillTraits(t *classTraits, def services.Definition) {
	vars := shape.VarsArray(def)
	t.memoizable = shape.MemoizableVars(vars)
	if t.memoizable {
		t.fp = shape.Of(def)
		t.safe = substitutionSafeVars(vars)
	}
}

// resolveEntries pins one shape-memo entry per plan group in a single
// pass under the table lock — the only mutex acquisition of a planned
// stage or Publish. The entries live in the runner-wide table, so the
// shapes one stage builds are reused by later Publish calls (the
// communication, robustness and versions modes) and repeated Runs, and
// a resumed stage finds the entries seedMemoFromJournal already
// registered.
func (r *Runner) resolveEntries(server framework.ServerFramework, sp *serverPlan) []*shapeEntry {
	if len(sp.Groups) == 0 {
		return nil
	}
	entries := make([]*shapeEntry, len(sp.Groups))
	d := r.dedup
	d.mu.Lock()
	for gi := range sp.Groups {
		key := shapeKey{server: server.Name(), fp: sp.Groups[gi].fp}
		e := d.entries[key]
		if e == nil {
			e = r.newEntry(&sp.Groups[gi])
			d.entries[key] = e
		}
		entries[gi] = e
	}
	d.mu.Unlock()
	return entries
}

// runServer executes one server's stage shape-first and merges the
// outcome into res: workers own whole plan items (a shape group, or one
// loose class), so no two workers ever touch the same memo entry and
// the execution phase takes no locks. Group outcomes fold into
// per-worker columnar shards that tree-merge at the end.
func (r *Runner) runServer(ctx context.Context, server framework.ServerFramework, res *Result) error {
	sp, err := r.planFor(server)
	if err != nil {
		return err
	}
	defs := sp.defs
	workers := r.workers()
	var failures [][]TestResult
	if r.cfg.KeepFailures {
		failures = make([][]TestResult, len(defs))
	}
	prog := newProgress(r.cfg.Progress, server.Name(), len(defs))
	defer prog.close()

	replay, err := r.replayPlan(server, defs)
	if err != nil {
		return err
	}
	if replay != nil {
		if err := r.seedMemoFromJournal(server, sp, replay); err != nil {
			return err
		}
		r.obs.Emit(obs.Event{
			Trace:  obs.TraceID(server.Name(), "resume"),
			Stage:  "resume",
			Server: server.Name(),
			Detail: fmt.Sprintf("%d cells replayed from journal", len(replay)),
		})
	}
	entries := r.resolveEntries(server, sp)

	r.met.workers.Set(int64(workers))
	stageStart := r.met.now()
	items := len(sp.Groups) + len(sp.Loose)
	ch := make(chan int)
	shards := make([]*shard, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sh := newShard(len(r.clients), len(r.profiles))
		shards[w] = sh
		wg.Add(1)
		go func(w int, sh *shard) {
			defer wg.Done()
			// Cancellation drains: an item already received executes to
			// completion (folded and journaled — the resumable boundary)
			// before the worker exits.
			for it := range ch {
				var err error
				if it < len(sp.Groups) {
					err = r.runPlannedGroup(server, defs, &sp.Groups[it], entries[it], replay, sh, failures, prog)
				} else if di := sp.Loose[it-len(sp.Groups)]; replay[di] != nil {
					err = r.replayCell(replay[di], di, sh, failures, prog)
				} else {
					err = r.runPlannedLoose(server, defs[di], di, sh, failures, prog)
				}
				if err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w, sh)
	}
feed:
	for it := 0; it < items; it++ {
		select {
		case <-ctx.Done():
			break feed
		case ch <- it:
		}
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("publish on %s: %w", server.Name(), err)
		}
	}
	r.completeStage(r.ckpt, studyAxis, server.Name(), 0)
	r.mergeServer(res, server.Name(), len(defs), shards, failures)
	r.obs.Emit(obs.Event{
		Trace:        obs.TraceID(server.Name()),
		Stage:        "server-stage",
		Server:       server.Name(),
		Detail:       fmt.Sprintf("%d services", len(defs)),
		ElapsedNanos: int64(r.met.since(stageStart)),
	})
	return nil
}

// runPlannedGroup executes one shape group on its single owning
// worker. Members run individually — through the memo code
// (publishEntry/testRow) — until the entry's test row is filled; every
// later safe member is then served by the clone broadcast: one
// multiplied fold of the representative's outcome row,
// with the memo-hit counters batched per group. Unsafe members always
// take the individual path, as do all members of unverified shapes
// (publishEntry degrades them to per-class fallbacks).
func (r *Runner) runPlannedGroup(server framework.ServerFramework, defs []services.Definition,
	g *planGroup, e *shapeEntry, replay map[int]*journal.Record,
	sh *shard, failures [][]TestResult, prog *progress) error {
	nc := len(r.clients)
	// rowFilled means e's test row is known-filled, so a safe clone's
	// row is e's codes with the executed bit cleared. It becomes true
	// after any member runs testRow while holding a verified memo —
	// including a memo seeded entirely from a resumed journal.
	rowFilled := false
	var clones []int
	var firstErr error
	for mi, di := range g.Members {
		if rec, ok := replay[di]; ok {
			if err := r.replayCell(rec, di, sh, failures, prog); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if rowFilled && g.safe[mi] {
			clones = append(clones, di)
			continue
		}
		def := defs[di]
		slot := r.publishEntry(e, server, def, false)
		switch {
		case slot.err != nil:
			if firstErr == nil {
				firstErr = slot.err
			}
			prog.serviceDone()
			continue
		case !slot.ok:
			r.journalRejected(server, def, slot)
			prog.serviceDone()
			continue
		}
		st := svcState{
			svc:      slot.svc,
			mode:     slot.mode,
			verified: slot.verified,
			codes:    make([]outcomeCode, nc),
		}
		r.testRow(&st.svc, st.codes)
		if st.svc.memo != nil {
			rowFilled = true
		}
		fails := r.foldService(&st, sh)
		if failures != nil {
			failures[di] = fails
		}
		r.journalService(&st)
		prog.serviceDone()
	}
	if len(clones) > 0 {
		r.broadcastClones(server, defs, g, e, clones, sh, failures, prog)
	}
	return firstErr
}

// broadcastClones resolves a group's remaining safe members in one
// columnar step. Counter parity with the per-member path, per clone:
// publishEntry's memoized branch contributes publishTotal, pubTotal,
// pubHits, publishMemoized and wsiMemoized; testRow's memo-hit branch
// contributes testTotal (both), testMemoized per client. Those sums
// are batched here; the outcome row is the representative's with the
// executed bit cleared — exactly what testRow returns for a clone —
// so the fold, the Failures index, and the journal see byte-identical
// data to running every clone individually.
func (r *Runner) broadcastClones(server framework.ServerFramework, defs []services.Definition,
	g *planGroup, e *shapeEntry, clones []int,
	sh *shard, failures [][]TestResult, prog *progress) {
	d, m := r.dedup, r.met
	nc := len(r.clients)
	k := int64(len(clones))
	m.publishTotal.Add(k)
	d.pubTotal.Add(k)
	d.pubHits.Add(k)
	m.publishMemoized.Add(k)
	m.wsiMemoized.Add(k)
	kt := k * int64(nc)
	m.testTotal.Add(kt)
	d.testTotal.Add(kt)
	m.testMemoized.Add(kt)

	codes := make([]outcomeCode, nc)
	for ci, code := range e.row.codes {
		codes[ci] = code &^ codeExecuted
	}
	errored := r.foldCodes(sh, server.Name(), e.flagged, e.profiles, codes, len(clones))
	keep := failures != nil && errored
	if keep || r.ckpt != nil {
		var row []byte // every clone's journaled codes
		if r.ckpt != nil {
			row = codeBytes(codes)
		}
		for _, di := range clones {
			class := defs[di].Parameter.Name
			if keep {
				failures[di] = r.failsFor(server.Name(), class, codes)
			}
			r.journalClone(server.Name(), class, e, row)
		}
	}
	prog.add(len(clones))
}

// publishLoose runs the description step for one loose class outside
// the shape memo: a non-memoizable class (the fallback route), or any
// class under the noDedup ablation (the direct route).
func (r *Runner) publishLoose(server framework.ServerFramework, def services.Definition) publishSlot {
	r.met.publishTotal.Inc()
	if !r.dedupOn() {
		s := r.publishDirect(server, def)
		s.mode = modeDirect
		return s
	}
	r.dedup.fallbacks.Add(1)
	r.met.publishFallback.Inc()
	s := r.publishDirect(server, def)
	s.mode = modeFallback
	return s
}

// runPlannedLoose executes one loose class: publish, then every client
// test on the per-class path.
func (r *Runner) runPlannedLoose(server framework.ServerFramework, def services.Definition,
	di int, sh *shard, failures [][]TestResult, prog *progress) error {
	slot := r.publishLoose(server, def)
	switch {
	case slot.err != nil:
		prog.serviceDone()
		return slot.err
	case !slot.ok:
		r.journalRejected(server, def, slot)
		prog.serviceDone()
		return nil
	}
	st := svcState{
		svc:      slot.svc,
		mode:     slot.mode,
		verified: slot.verified,
		codes:    make([]outcomeCode, len(r.clients)),
	}
	r.testRow(&st.svc, st.codes)
	fails := r.foldService(&st, sh)
	if failures != nil {
		failures[di] = fails
	}
	r.journalService(&st)
	prog.serviceDone()
	return nil
}

// PlanServerSummary is one server stage's row of a PlanSummary.
type PlanServerSummary struct {
	Server string
	// Classes = Shapes' builders + Clones + Unsafe + Loose.
	Classes int
	// Shapes is the number of distinct shape groups.
	Shapes int
	// Clones counts safe non-builder members — the classes the clone
	// broadcast can serve.
	Clones int
	// Unsafe counts non-builder members routed per-class by the
	// substitution-safety predicates; Loose counts classes outside the
	// memo layer entirely.
	Unsafe int
	Loose  int
}

// PlanSummary describes a campaign execution plan — the -report plan
// data. Building it resolves the plan (adopted, or a catalog walk) but
// runs nothing.
type PlanSummary struct {
	// Fingerprint is the plan's content address; Source is "built" or
	// "shared" (adopted from another runner).
	Fingerprint string
	Source      string
	Classes     int
	Shapes      int
	Clones      int
	Unsafe      int
	Loose       int
	Servers     []PlanServerSummary
}

// PlanSummary resolves and summarizes the runner's execution plan.
func (r *Runner) PlanSummary() (*PlanSummary, error) {
	p, err := r.ensurePlan()
	if err != nil {
		return nil, err
	}
	sum := &PlanSummary{
		Fingerprint: p.fingerprint,
		Source:      p.source,
		Classes:     p.classes,
		Shapes:      p.shapes,
	}
	for _, name := range p.order {
		sp := p.servers[name]
		row := PlanServerSummary{
			Server:  name,
			Classes: sp.Defs,
			Shapes:  len(sp.Groups),
			Loose:   len(sp.Loose),
		}
		// Builders run the full path whether or not they are themselves
		// substitution-safe, so only non-builder members split into
		// clones and unsafe — keeping Classes = Shapes+Clones+Unsafe+Loose
		// an exact identity.
		for gi := range sp.Groups {
			g := &sp.Groups[gi]
			for mi := 1; mi < len(g.Members); mi++ {
				if g.safe[mi] {
					row.Clones++
				} else {
					row.Unsafe++
				}
			}
		}
		sum.Clones += row.Clones
		sum.Unsafe += row.Unsafe
		sum.Loose += row.Loose
		sum.Servers = append(sum.Servers, row)
	}
	return sum, nil
}
