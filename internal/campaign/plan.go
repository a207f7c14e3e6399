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
// broadcast: each clone's slot of the stage slab gets the
// representative's outcome row, and the route ledger credits the whole
// group in one call instead of once per class. Every route — a live
// member, a clone, a loose class, a replayed journal record — writes
// only its own definition's slot, and one serial fold (foldStage) walks
// the slots in catalog order after the pool drains.
//
// The plan is bookkeeping, never authority: builders still publish,
// byte-verify their templates, and execute real client tests through
// the memo code (publishEntry/testRow), so the §6.6 guarantee —
// memoization can never change a Result — holds unchanged;
// TestDedupEquivalenceFull proves it at full scale against the
// test-side per-class reference (publishDirect → runRow → foldStage for
// every definition).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"wsinterop/internal/framework"
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
// classes the memo layer cannot serve (shape.Memoizable failures).
// Servers of one language share the partition (Groups, Loose and defs
// alias one immutable catalog partition); only Server differs.
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
// style, profiles) plus the shard slice, which selects the plan's
// items. Workers are excluded — a plan is execution-shape, not
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
	if err := r.cfg.Shard.validate(); err != nil {
		return nil, err
	}
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
// carries no server name, and nothing mutates it once built. A sharded
// runner keeps only its shard's plan items (shardItems) and groups
// those.
func (r *Runner) partition(defs []services.Definition) *serverPlan {
	traits := r.classTraitsFor(defs)
	if sh := r.cfg.Shard; sh.enabled() {
		defs, traits = shardItems(defs, traits, sh)
	}
	sp := &serverPlan{Defs: len(defs), defs: defs}
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

// shardItems keeps the definitions of one shard's plan items, in
// catalog order. An item is a shape group, numbered in plan order
// (first member in catalog order), or one loose class, numbered after
// every group; the shard holds the items whose number is congruent to
// sh.Index modulo sh.Count. A shape therefore lives in exactly one
// shard, so a shard builds and journals its groups exactly as a
// single process does.
func shardItems(defs []services.Definition, traits []classTraits, sh ShardSpec) ([]services.Definition, []classTraits) {
	item := make([]int, len(defs))
	groups := make(map[shape.Fingerprint]int)
	for i := range traits {
		if t := &traits[i]; t.memoizable {
			gi, ok := groups[t.fp]
			if !ok {
				gi = len(groups)
				groups[t.fp] = gi
			}
			item[i] = gi
		}
	}
	loose := len(groups)
	var keptDefs []services.Definition
	var keptTraits []classTraits
	for i := range defs {
		if !traits[i].memoizable {
			item[i] = loose
			loose++
		}
		if item[i]%sh.Count == sh.Index {
			keptDefs = append(keptDefs, defs[i])
			keptTraits = append(keptTraits, traits[i])
		}
	}
	return keptDefs, keptTraits
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
// communication, robustness and versions modes) and repeated Runs; a
// resumed stage's workers seed them from the journal (replayGroup).
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

// studyStage is one study server stage in flight: its plan, the count
// of cells its journal replayed, and the slab every route writes its own
// definition's cell into. Workers own whole plan items, so no two write
// one cell; the serial fold (foldStage) reads the slab once the pool
// drains.
type studyStage struct {
	server   framework.ServerFramework
	sp       *serverPlan
	replayed atomic.Int64
	prog     *progress
	nc       int
	// codes holds one row of outcome codes per definition (nc clients,
	// roster order), and cells the facts the fold reads beside each row.
	codes []outcomeCode
	cells []studyCell

	mu    sync.Mutex
	errAt int   // the definition index err failed at
	err   error // the failed route first in catalog order
}

// studyCell is the fold's view of one definition: whether it published,
// and its flagged status and profile mask.
type studyCell struct {
	published, flagged bool
	profiles           uint64
}

// fail records definition di's route error. The stage reports the
// failure first in catalog order, whichever worker held which item.
func (st *studyStage) fail(di int, err error) {
	st.mu.Lock()
	if st.err == nil || di < st.errAt {
		st.errAt, st.err = di, err
	}
	st.mu.Unlock()
}

// row is definition di's slot in the codes slab.
func (st *studyStage) row(di int) []outcomeCode {
	return st.codes[di*st.nc : (di+1)*st.nc : (di+1)*st.nc]
}

// runServer executes one server's stage shape-first and folds the
// outcome into res: workers own whole plan items (a shape group, or one
// loose class), so no two workers ever touch the same memo entry or
// cell slot, and only a failing route takes a lock (fail).
func (r *Runner) runServer(ctx context.Context, server framework.ServerFramework, res *Result) error {
	sp, err := r.planFor(server)
	if err != nil {
		return err
	}
	nc := len(r.clients)
	st := &studyStage{server: server, sp: sp, nc: nc,
		codes: make([]outcomeCode, len(sp.defs)*nc), cells: make([]studyCell, len(sp.defs))}
	st.prog = newProgress(r.cfg.Progress, server.Name(), len(sp.defs))
	defer st.prog.close()

	entries := r.resolveEntries(server, sp)

	r.met.workers.Set(int64(r.workers()))
	stageStart := r.met.now()
	err = r.feed(ctx, len(sp.Groups)+len(sp.Loose), func(it int) {
		if it < len(sp.Groups) {
			r.runPlannedGroup(st, &sp.Groups[it], entries[it])
			return
		}
		di := sp.Loose[it-len(sp.Groups)]
		switch rec, ok := r.journaled(st, di); {
		case !ok:
		case rec != nil:
			r.replayCell(st, di, rec)
		default:
			r.runCell(st, di, r.publishLoose(server, sp.defs[di]))
		}
	})
	if n := st.replayed.Load(); n > 0 {
		r.obs.Emit(obs.Event{
			Trace:  obs.TraceID(server.Name(), "resume"),
			Stage:  "resume",
			Server: server.Name(),
			Detail: fmt.Sprintf("%d cells replayed from journal", n),
		})
	}
	if err != nil {
		return err
	}
	if st.err != nil {
		return fmt.Errorf("publish on %s: %w", server.Name(), st.err)
	}
	r.foldStage(res, st)
	r.completeStage(r.ckpt, studyAxis, server.Name(), 0)
	r.obs.Emit(obs.Event{
		Trace:        obs.TraceID(server.Name()),
		Stage:        "server-stage",
		Server:       server.Name(),
		Detail:       fmt.Sprintf("%d services", len(sp.defs)),
		ElapsedNanos: int64(r.met.since(stageStart)),
	})
	return nil
}

// runPlannedGroup executes one shape group on its single owning
// worker. On resume it first replays the members' journaled cells and
// seeds the entry from them (replayGroup). Members left run
// individually — through the memo code (publishEntry/testRow) — until
// the entry's test row is filled; every later safe member is then
// served by the clone broadcast. Unsafe members always take the
// individual path, as do all members of unverified shapes
// (publishEntry degrades them to per-class fallbacks).
func (r *Runner) runPlannedGroup(st *studyStage, g *planGroup, e *shapeEntry) {
	left := len(g.Members)
	if r.ckpt.replaying() {
		var ok bool
		if left, ok = r.replayGroup(st, g, e); !ok || left == 0 {
			return
		}
	}
	// rowFilled means e's test row is known-filled, so a safe clone's
	// row is e's codes with the executed bit cleared. It becomes true
	// after any member runs testRow while holding a verified memo —
	// including a memo seeded entirely from a resumed journal.
	rowFilled := false
	var clones []int
	for mi, di := range g.Members {
		if left < len(g.Members) {
			if _, replayed := r.ckpt.record(st.server.Name(), st.sp.defs[di].Parameter.Name); replayed {
				continue
			}
		}
		if rowFilled && g.safe[mi] {
			clones = append(clones, di)
			continue
		}
		s := r.publishEntry(e, st.server, st.sp.defs[di], false)
		r.runCell(st, di, s)
		rowFilled = rowFilled || s.svc.memo != nil
	}
	if len(clones) > 0 {
		r.broadcastClones(st, e, clones)
	}
}

// runCell completes one executed cell from its publish slot: a failed
// route records its error, a rejected class is journaled as such, and a
// published one runs its test row into its slot and is journaled with
// it.
func (r *Runner) runCell(st *studyStage, di int, s publishSlot) {
	switch {
	case s.err != nil:
		st.fail(di, s.err)
	case !s.ok:
		r.journalRejected(st.server, st.sp.defs[di], s)
	default:
		codes := st.row(di)
		r.testRow(&s.svc, codes)
		st.cells[di] = studyCell{published: true, flagged: s.svc.Flagged, profiles: s.svc.Profiles}
		r.journalService(&s, codes)
	}
	st.prog.serviceDone()
}

// broadcastClones resolves a group's remaining safe members in one
// step: the ledger credits k memoized publishes and k rows of
// memo-served tests, and each clone's slot gets the representative's
// row with the executed bit cleared — exactly what testRow returns for
// a clone — so the fold, the Failures index and the journal see the
// same data as running every clone individually.
func (r *Runner) broadcastClones(st *studyStage, e *shapeEntry, clones []int) {
	k := int64(len(clones))
	r.creditPublish(modeMemoized, true, e.flagged, k, 0, 0)
	r.creditTests(true, k*int64(st.nc), 0)
	row := st.row(clones[0])
	for ci, code := range e.row.codes {
		row[ci] = code &^ codeExecuted
	}
	var journaled []byte // every clone's journaled codes
	if r.ckpt != nil {
		journaled = codeBytes(row)
	}
	for _, di := range clones {
		copy(st.row(di), row)
		st.cells[di] = studyCell{published: true, flagged: e.flagged, profiles: e.profiles}
		r.journalClone(st.server.Name(), st.sp.defs[di].Parameter.Name, e, journaled)
	}
	st.prog.add(len(clones))
}

// publishLoose runs the description step for one loose class — a
// class that failed the shape.Memoizable guard — outside the shape
// memo (the fallback route).
func (r *Runner) publishLoose(server framework.ServerFramework, def services.Definition) (s publishSlot) {
	defer r.creditSlot(&s)
	s = r.publishDirect(server, def)
	s.mode = modeFallback
	return s
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
