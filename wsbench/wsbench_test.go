package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wsinterop/internal/campaign"
	"wsinterop/internal/typesys"
)

// TestDistinctCatalogDeterministic pins that a seed fully determines the
// synthetic catalogs: the same seed exports byte-identical JSON, and a
// different seed a different catalog of the same size.
func TestDistinctCatalogDeterministic(t *testing.T) {
	for _, lang := range []typesys.Language{typesys.Java, typesys.CSharp} {
		a, err := distinctCatalogJSON(lang, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := distinctCatalogJSON(lang, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: seed 7 exported two different catalogs", lang)
		}
		other, err := distinctCatalogJSON(lang, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, other) {
			t.Fatalf("%s: seeds 7 and 8 exported the same catalog", lang)
		}
		cat, err := typesys.ImportJSON(a)
		if err != nil {
			t.Fatal(err)
		}
		again, err := typesys.ExportJSON(cat)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, again) {
			t.Fatalf("%s: import → export is not the identity", lang)
		}
		if got, want := cat.Len(), stockCatalog(lang).Len(); got != want {
			t.Fatalf("%s: %d classes, stock catalog has %d", lang, got, want)
		}
	}
}

// TestDistinctCatalogSharesNoShape pins the workload property: the
// planner finds one class per shape, so the shape memo has nothing to
// share and every class takes the full per-class path.
func TestDistinctCatalogSharesNoShape(t *testing.T) {
	cats, err := distinctCatalogs(3)
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.New(campaign.WithCatalog(func(lang typesys.Language) *typesys.Catalog { return cats[lang] }))
	sum, err := r.PlanSummary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shapes != sum.Classes || sum.Clones != 0 || sum.Loose != 0 {
		t.Fatalf("plan: %d classes in %d shapes (%d clones, %d loose); want one class per shape",
			sum.Classes, sum.Shapes, sum.Clones, sum.Loose)
	}
}

// TestMetricsMatchDefinition pins that the benchmark prints exactly the
// metrics BENCHMARK.json declares, with the declared units and in the
// declared per-layer order.
func TestMetricsMatchDefinition(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	printed := endToEnd(&loopResult{}, 0)
	if len(printed) != len(def.EndToEnd) {
		t.Errorf("%d end-to-end metrics printed, %d declared", len(printed), len(def.EndToEnd))
	}
	for _, m := range def.EndToEnd {
		if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(def.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(def.PerLayer), len(layerMetrics))
	}
	for i, m := range def.PerLayer {
		if got := layerMetrics[i]; got.name != m.Name || got.unit != m.Unit {
			t.Errorf("per-layer #%d: declared %s (%s), printed %s (%s)", i, m.Name, m.Unit, got.name, got.unit)
		}
	}
}

// TestCompareRefusesDifferentScale pins that results taken at another
// scale or core count are refused rather than compared.
func TestCompareRefusesDifferentScale(t *testing.T) {
	base := stamp{Workload: "wire_faults", ClassLimit: 40, Workers: 2, GOMAXPROCS: 2, NProc: 2, Seconds: 25}
	if f := comparable(base, base); f != "" {
		t.Fatalf("identical stamps refused on %s", f)
	}
	other := base
	other.Seed = 9
	other.CPUModel = "another"
	if f := comparable(base, other); f != "" {
		t.Fatalf("seed and CPU model are not scale, yet refused on %s", f)
	}
	for field, mutate := range map[string]func(*stamp){
		"class_limit": func(s *stamp) { s.ClassLimit = 300 },
		"workers":     func(s *stamp) { s.Workers = 1 },
		"gomaxprocs":  func(s *stamp) { s.GOMAXPROCS = 1 },
		"nproc":       func(s *stamp) { s.NProc = 8 },
	} {
		s := base
		mutate(&s)
		if got := comparable(base, s); got != field {
			t.Errorf("%s differs: refused on %q", field, got)
		}
	}
}

// TestCompareFailsIncorrectRun pins that a NEW run whose output failed
// its oracle fails the comparison before any bound is consulted, even
// when the other runs and every timing are fine.
func TestCompareFailsIncorrectRun(t *testing.T) {
	dir := t.TempDir()
	line := func(correct bool, failed int) string {
		st, _ := json.Marshal(map[string]stamp{"stamp": {Workload: "study_cold", Workers: 2, GOMAXPROCS: 2, NProc: 2, Seconds: 25}})
		res, _ := json.Marshal(resultLine{Correct: correct, Attempted: 120, Failed: failed,
			Metrics: map[string]metric{"wall_s": {Value: 0.2, Unit: "s"}}})
		return string(st) + "\n" + string(res) + "\n"
	}
	base := filepath.Join(dir, "base.out")
	if err := os.WriteFile(base, []byte(line(true, 0)+line(true, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{
		"correct=false": line(false, 0),
		"failed>0":      line(true, 1),
	} {
		next := filepath.Join(dir, "new.out")
		if err := os.WriteFile(next, []byte(line(true, 0)+bad+line(true, 0)), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		if got := compareMain([]string{base, next}, &out, &errOut); got != 1 {
			t.Errorf("%s: compare exited %d, want 1 (stderr %q)", name, got, errOut.String())
		}
	}
}

// TestScaledByRuler pins how an iteration's timings are scaled: by the
// reference ruler time over the mean of the readings just before and
// just after it, so an iteration run while the machine was twice as slow
// as the reference reads half its wall.
func TestScaledByRuler(t *testing.T) {
	res := &loopResult{readings: []float64{rulerRef, 2 * rulerRef, 2 * rulerRef}}
	got := res.scaled([]sample{
		{wall: 3, rawWall: 3, cpu: 6, reading: 0},
		{wall: 3, rawWall: 3, cpu: 6, reading: 1},
	})
	for i, want := range []struct{ wall, cpu float64 }{{2, 4}, {1.5, 3}} {
		if got[i].wall != want.wall || got[i].cpu != want.cpu || got[i].rawWall != 3 {
			t.Errorf("sample %d scaled to wall %g cpu %g raw %g, want %g, %g, 3",
				i, got[i].wall, got[i].cpu, got[i].rawWall, want.wall, want.cpu)
		}
	}
}
