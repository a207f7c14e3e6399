package campaign

// Tests for shape-first planned execution (plan.go): the plan's
// structural invariants, memo statistics and counters pinned to the
// values the campaign has always produced, in-process plan sharing, and
// Publish — the wire modes' entry point — executing over the same plan
// as Run.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"wsinterop/internal/obs"
	"wsinterop/internal/shape"
)

// memoParity is a campaign's shape-memo accounting: its DedupStats and
// the stage counters the memo routes feed.
type memoParity struct {
	dedup    DedupStats
	counters map[string]int64
}

// pinnedParity holds the accounting of resumeConfig(limit, 4) runs,
// keyed by limit, as recorded by the class-first executor that
// discovered shapes per class through the memo table before the plan
// became the only discovery path. The planned executor must reproduce
// it exactly at every worker count, resumed, and shard-merged.
var pinnedParity = map[int]memoParity{
	150: {
		dedup: DedupStats{Enabled: true, Shapes: 254, PublishTotal: 450, PublishMemoized: 196,
			TestTotal: 4928, TestMemoized: 2156, Fallbacks: 0, WSIChecks: 252, WSIMemoized: 196},
		counters: map[string]int64{
			"campaign.publish.total": 450, "campaign.publish.memoized": 196,
			"campaign.publish.fallbacks": 0, "campaign.publish.rejected": 2,
			"campaign.test.total": 4928, "campaign.test.memoized": 2156,
			"campaign.wsi.checks": 252, "campaign.wsi.memoized": 196, "campaign.wsi.flagged": 84,
			"campaign.generate.runs": 2772, "campaign.compile.runs": 2498,
		},
	},
	0: {
		dedup: DedupStats{Enabled: true, Shapes: 4856, PublishTotal: 22024, PublishMemoized: 17168,
			TestTotal: 79629, TestMemoized: 28127, Fallbacks: 0, WSIChecks: 4682, WSIMemoized: 2557},
		counters: map[string]int64{
			"campaign.publish.total": 22024, "campaign.publish.memoized": 17168,
			"campaign.publish.fallbacks": 0, "campaign.publish.rejected": 174,
			"campaign.test.total": 79629, "campaign.test.memoized": 28127,
			"campaign.wsi.checks": 4682, "campaign.wsi.memoized": 2557, "campaign.wsi.flagged": 84,
			"campaign.generate.runs": 51502, "campaign.compile.runs": 51228,
		},
	},
}

func checkParity(t *testing.T, want memoParity, res *Result, snap *obs.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(*res.Dedup, want.dedup) {
		t.Errorf("dedup stats = %+v, want %+v", *res.Dedup, want.dedup)
	}
	for name, v := range want.counters {
		if got := counterValue(snap, name); got != v {
			t.Errorf("counter %s = %d, want %d", name, got, v)
		}
	}
}

// runPlanMatrix runs the planned executor at workers 1 and 8, resumed
// from a mid-run interruption, and merged from a 2-way shard split:
// every variant matches the pinned accounting, and its Result is
// byte-identical to the serial run's.
func runPlanMatrix(t *testing.T, limit int) {
	want := pinnedParity[limit]
	var ref []byte
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := resumeConfig(limit, workers)
			res, err := NewRunner(cfg).Run(context.Background())
			if err != nil {
				t.Fatalf("planned run: %v", err)
			}
			checkParity(t, want, res, cfg.Obs.Snapshot())
			got := resultBytes(t, res)
			if ref == nil {
				ref = got
			} else if string(got) != string(ref) {
				t.Error("serialized Result differs from the workers=1 run")
			}
		})
	}

	t.Run("resumed", func(t *testing.T) {
		dir := t.TempDir()
		interruptAt(t, resumeConfig(limit, 8), dir, int(want.dedup.PublishTotal)/2)
		res, snap := resume(t, resumeConfig(limit, 8), dir)
		checkParity(t, want, res, snap)
		if string(resultBytes(t, res)) != string(ref) {
			t.Error("resumed Result differs from the uninterrupted run")
		}
	})

	t.Run("sharded", func(t *testing.T) {
		dirs := runShardWorkers(t, limit, 4, 2, -1, 0)
		res, snap := mergeShardJournals(t, limit, 4, dirs)
		checkParity(t, want, res, snap)
		if string(resultBytes(t, res)) != string(ref) {
			t.Error("shard-merged Result differs from the single-process run")
		}
	})
}

func TestPlanEquivalenceScaled(t *testing.T) {
	runPlanMatrix(t, 150)
}

// TestPlanEquivalenceFull is the acceptance check at full study scale:
// all 22 024 service cells on the planned executor, plus the resumed
// and sharded variants.
func TestPlanEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale plan equivalence skipped in -short mode")
	}
	runPlanMatrix(t, 0)
}

// TestPlanPartition pins the planner's structural invariants: every
// definition index appears in exactly one group or the loose list,
// builders lead their groups in catalog order, every member hashes to
// its group's fingerprint, and the plan summary's accounting is an
// exact identity.
func TestPlanPartition(t *testing.T) {
	r := NewRunner(Config{Limit: 200, Workers: 4})
	p, err := r.ensurePlan()
	if err != nil {
		t.Fatalf("ensurePlan: %v", err)
	}
	if p.source != "built" {
		t.Errorf("plan source = %q, want built", p.source)
	}
	for _, server := range r.servers {
		sp := p.servers[server.Name()]
		if sp == nil {
			t.Fatalf("no stage plan for %s", server.Name())
		}
		defs, err := r.defsFor(server)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Defs != len(defs) {
			t.Fatalf("%s: plan covers %d defs, catalog has %d", sp.Server, sp.Defs, len(defs))
		}
		seen := make([]bool, len(defs))
		claim := func(i int) {
			if i < 0 || i >= len(defs) || seen[i] {
				t.Fatalf("%s: index %d out of range or claimed twice", sp.Server, i)
			}
			seen[i] = true
		}
		for gi := range sp.Groups {
			g := &sp.Groups[gi]
			if len(g.Members) == 0 {
				t.Fatalf("%s: group %d is empty", sp.Server, gi)
			}
			prev := -1
			for _, di := range g.Members {
				claim(di)
				if di <= prev {
					t.Errorf("%s group %d: members not in catalog order: %v", sp.Server, gi, g.Members)
				}
				prev = di
				if shape.Of(defs[di]) != g.fp {
					t.Errorf("%s group %d: member %d does not hash to the group shape", sp.Server, gi, di)
				}
			}
			for mi, di := range g.Members {
				if g.safe[mi] != substitutionSafe(defs[di]) {
					t.Errorf("%s group %d: member %d safety mask is wrong", sp.Server, gi, di)
				}
			}
		}
		for _, di := range sp.Loose {
			claim(di)
			if shape.Memoizable(defs[di]) {
				t.Errorf("%s: loose member %d is memoizable", sp.Server, di)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("%s: index %d not covered", sp.Server, i)
			}
		}
	}

	sum, err := r.PlanSummary()
	if err != nil {
		t.Fatalf("PlanSummary: %v", err)
	}
	if sum.Classes != p.classes || sum.Shapes != p.shapes {
		t.Errorf("summary totals %d/%d, plan has %d/%d", sum.Classes, sum.Shapes, p.classes, p.shapes)
	}
	for _, row := range sum.Servers {
		if row.Classes != row.Shapes+row.Clones+row.Unsafe+row.Loose {
			t.Errorf("%s: %d classes != %d shapes + %d clones + %d unsafe + %d loose",
				row.Server, row.Classes, row.Shapes, row.Clones, row.Unsafe, row.Loose)
		}
	}

	// NoDedup plans are all loose.
	nd := NewRunner(Config{Limit: 50, NoDedup: true})
	np, err := nd.ensurePlan()
	if err != nil {
		t.Fatalf("NoDedup ensurePlan: %v", err)
	}
	for name, sp := range np.servers {
		if len(sp.Groups) != 0 || len(sp.Loose) != sp.Defs {
			t.Errorf("%s: NoDedup plan has %d groups, %d of %d loose",
				name, len(sp.Groups), len(sp.Loose), sp.Defs)
		}
	}

	// The full-scale shape count is the §6.6 study invariant.
	if !testing.Short() {
		full := NewRunner(Config{})
		fsum, err := full.PlanSummary()
		if err != nil {
			t.Fatalf("full PlanSummary: %v", err)
		}
		if fsum.Classes != 22024 || fsum.Shapes != 4856 {
			t.Errorf("full plan = %d classes in %d shapes, want 22024 in 4856", fsum.Classes, fsum.Shapes)
		}
	}
}

// planCounter reads one campaign.plan.* counter from a registry.
func planCounter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// TestSharedPlan proves the in-process sharing path: a plan resolved
// by one runner is adopted by a second with the same configuration
// (no build, one shared-plan credit, byte-identical Result), and a
// plan for any other configuration is refused before it can execute.
func TestSharedPlan(t *testing.T) {
	base := resumeConfig(80, 4)
	a, err := NewRunner(base).Run(context.Background())
	if err != nil {
		t.Fatalf("building run: %v", err)
	}
	plan, err := NewRunner(resumeConfig(80, 4)).ExecutionPlan()
	if err != nil {
		t.Fatalf("ExecutionPlan: %v", err)
	}
	if plan.Fingerprint() == "" {
		t.Fatal("shared plan has no fingerprint")
	}

	second := resumeConfig(80, 4)
	r := NewRunner(second)
	if err := r.AdoptPlan(plan); err != nil {
		t.Fatalf("AdoptPlan: %v", err)
	}
	b, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("adopting run: %v", err)
	}
	if bu, sh := planCounter(second.Obs, "campaign.plan.builds"), planCounter(second.Obs, "campaign.plan.shared"); bu != 0 || sh != 1 {
		t.Errorf("adopting run: builds=%d shared=%d, want 0/1", bu, sh)
	}
	sum, err := r.PlanSummary()
	if err != nil {
		t.Fatalf("PlanSummary: %v", err)
	}
	if sum.Source != "shared" {
		t.Errorf("plan source = %q, want shared", sum.Source)
	}
	compareResults(t, a, b)
	if got, want := resultBytes(t, b), resultBytes(t, a); string(got) != string(want) {
		t.Error("shared-plan Result is not byte-identical to the building run's")
	}

	// Wrong configuration: refused up front, never executed.
	if err := NewRunner(resumeConfig(60, 4)).AdoptPlan(plan); err == nil {
		t.Error("AdoptPlan accepted a plan for a different configuration")
	}
}

// samePublished reports the first difference between two Publish
// outputs, comparing every field a wire mode consumes.
func samePublished(a, b []PublishedService) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d services, want %d", len(b), len(a))
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Server != y.Server || x.Class != y.Class || string(x.Doc) != string(y.Doc) ||
			x.Flagged != y.Flagged || x.Compliant != y.Compliant || x.Profiles != y.Profiles {
			return fmt.Errorf("service %d: %s on %s differs from %s on %s", i, y.Class, y.Server, x.Class, x.Server)
		}
	}
	return nil
}

// TestPublishPlanned proves Publish executes over the plan: its output
// is byte-identical at workers 1 and 8, every shape's representative is
// the group's first member in catalog order, and publishing again on
// the same runner serves every service from the memo.
func TestPublishPlanned(t *testing.T) {
	ctx := context.Background()
	publishAll := func(r *Runner) [][]PublishedService {
		t.Helper()
		var out [][]PublishedService
		for _, server := range r.servers {
			published, _, err := r.Publish(ctx, server)
			if err != nil {
				t.Fatalf("Publish on %s: %v", server.Name(), err)
			}
			out = append(out, published)
		}
		return out
	}
	reg := frozenRegistry()
	serial := NewRunner(Config{Limit: 150, Workers: 1, Obs: reg})
	first := publishAll(serial)
	parallel := publishAll(NewRunner(Config{Limit: 150, Workers: 8}))
	for si := range first {
		if err := samePublished(first[si], parallel[si]); err != nil {
			t.Errorf("workers 1 vs 8, server %d: %v", si, err)
		}
	}

	for _, server := range serial.servers {
		sp, err := serial.planFor(server)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range sp.Groups {
			e := serial.dedup.entries[shapeKey{server: server.Name(), fp: g.fp}]
			if e == nil || e.rejected {
				continue
			}
			if want := sp.defs[g.Members[0]].Parameter.Name; e.rep.Class != want {
				t.Errorf("%s: shape representative is %q, want first member %q", server.Name(), e.rep.Class, want)
			}
		}
	}

	checks := reg.Counter("campaign.wsi.checks").Value()
	again := publishAll(serial)
	for si := range first {
		if err := samePublished(first[si], again[si]); err != nil {
			t.Errorf("repeated Publish, server %d: %v", si, err)
		}
	}
	if got := reg.Counter("campaign.wsi.checks").Value(); got != checks {
		t.Errorf("repeated Publish executed %d WS-I checks, want 0 (memo-served)", got-checks)
	}
	if f := reg.Counter("campaign.publish.fallbacks").Value(); f != 0 {
		t.Errorf("publish fallbacks = %d, want 0", f)
	}
}

// TestWireModesShareOnePlan proves the communication, robustness and
// versions modes find shapes through the runner's one plan: three modes
// on one runner build it exactly once.
func TestWireModesShareOnePlan(t *testing.T) {
	ctx := context.Background()
	reg := frozenRegistry()
	r := NewRunner(Config{Limit: 10, Workers: 4, Obs: reg})
	if _, err := r.RunCommunication(ctx); err != nil {
		t.Fatalf("communication: %v", err)
	}
	if _, err := r.RunRobustness(ctx); err != nil {
		t.Fatalf("robustness: %v", err)
	}
	if _, err := r.RunVersions(ctx); err != nil {
		t.Fatalf("versions: %v", err)
	}
	if b := planCounter(reg, "campaign.plan.builds"); b != 1 {
		t.Errorf("campaign.plan.builds = %d, want 1", b)
	}
}
