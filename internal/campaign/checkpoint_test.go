package campaign

// Pins of the checkpoint journal's on-disk format and of what a resume
// rebuilds: every cell is appended exactly once, only the builders of
// multi-member shapes carry a document, a finished shape is never
// re-seeded, a cut anywhere in the journal resumes to the clean Result,
// and a store in the older snapshot-plus-journal layout is refused.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wsinterop/internal/journal"
	"wsinterop/internal/journal/journaltest"
)

// checkpointedRun runs the campaign to completion with a checkpoint in
// dir and returns the runner, so tests can inspect its plan.
func checkpointedRun(t *testing.T, cfg config, dir string) (*Runner, *Result) {
	t.Helper()
	cfg.Checkpoint = dir
	r := newRunner(cfg)
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	return r, res
}

// TestCheckpointAppendsEachCellOnce is the evidence that the journal
// needs no compaction: a campaign never appends a trace twice, so the
// store's record count equals the cells the run executed.
func TestCheckpointAppendsEachCellOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := resumeConfig(300, 4)
	_, res := checkpointedRun(t, cfg, dir)
	_, all, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	recs := studyCells(all)
	executed := cfg.Obs.Counter("journal.cells.executed").Value()
	if int64(len(recs)) != executed {
		t.Errorf("journal holds %d records, run executed %d cells", len(recs), executed)
	}
	if len(recs) != res.TotalServices {
		t.Errorf("journal holds %d records, campaign has %d cells", len(recs), res.TotalServices)
	}
	if frames := len(journaltest.FrameEnds(t, dir)); frames != len(all) {
		t.Errorf("%s has %d frames for %d distinct records", journal.DataFile, frames, len(all))
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.jsonl")); !os.IsNotExist(err) {
		t.Errorf("a snapshot was written (stat err %v)", err)
	}
}

// studyCells drops the stage completion sentinels from a loaded study
// journal, keeping its cells.
func studyCells(recs []journal.Record) []journal.Record {
	var cells []journal.Record
	for _, rec := range recs {
		if rec.Mode != studyAxis.complete() {
			cells = append(cells, rec)
		}
	}
	return cells
}

// TestCheckpointDocsOnlyForSharedShapes pins which records carry a
// WSDL document: the builder of a solo shape journals none (no resume
// ever re-splits its template), the verified builder of a multi-member
// shape keeps its own, and no other record has one. A checkpointed run
// also never marshals a solo builder's document in memory.
func TestCheckpointDocsOnlyForSharedShapes(t *testing.T) {
	dir := t.TempDir()
	r, _ := checkpointedRun(t, resumeConfig(300, 4), dir)
	_, recs, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	byKey := make(map[journal.Key]journal.Record, len(recs))
	for _, rec := range recs {
		byKey[rec.Key()] = rec
	}
	withDoc := 0
	for _, rec := range recs {
		if len(rec.Doc) > 0 {
			withDoc++
		}
	}
	solo, shared := 0, 0
	for _, server := range r.servers {
		sp, err := r.planFor(server)
		if err != nil {
			t.Fatal(err)
		}
		for gi := range sp.Groups {
			g := &sp.Groups[gi]
			rec, ok := byKey[journal.Key{Server: server.Name(), Class: sp.defs[g.Members[0]].Parameter.Name}]
			if !ok || rec.Mode != modeBuilt.id() {
				t.Fatalf("%s: group builder %s not journaled as built (%+v)", server.Name(), sp.defs[g.Members[0]].Parameter.Name, rec)
			}
			switch {
			case len(g.Members) == 1:
				solo++
				if len(rec.Doc) != 0 {
					t.Errorf("solo builder %s on %s journaled a %d-byte document", rec.Class, rec.Server, len(rec.Doc))
				}
			case rec.Verified:
				shared++
				withDoc--
				if len(rec.Doc) == 0 {
					t.Errorf("verified builder %s on %s of a %d-member shape journaled no document", rec.Class, rec.Server, len(g.Members))
				}
			}
		}
	}
	if solo == 0 || shared == 0 {
		t.Fatalf("limit 300 has %d solo and %d verified multi-member shapes; the pin needs both", solo, shared)
	}
	if withDoc != 0 {
		t.Errorf("%d records other than verified multi-member builders carry a document", withDoc)
	}
	requireSoloRepsUnrendered(t, r)
}

// TestResumeCompletedJournalSeedsNothing: a shape whose members are all
// journaled has nothing left to run, so resuming a finished journal
// must not re-publish a sentinel or split a template for it.
func TestResumeCompletedJournalSeedsNothing(t *testing.T) {
	dir := t.TempDir()
	_, clean := checkpointedRun(t, resumeConfig(300, 4), dir)
	cfg := resumeConfig(300, 4)
	cfg.Checkpoint, cfg.Resume = dir, true
	r := newRunner(cfg)
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	compareResults(t, clean, res)
	r.dedup.mu.Lock()
	defer r.dedup.mu.Unlock()
	if len(r.dedup.entries) == 0 {
		t.Fatal("resumed runner has no shape entries to inspect")
	}
	seeded := 0
	for _, e := range r.dedup.entries {
		if e.tmpl != nil {
			seeded++
		}
	}
	if seeded != 0 {
		t.Errorf("%d of %d shapes were seeded with a template although none has a member left to run", seeded, len(r.dedup.entries))
	}
}

// TestResumeSnapshotLayout: a checkpoint in the layout earlier builds
// wrote — part of the records compacted into snapshot.jsonl beside the
// journal — is refused with journal.ErrVersion, by a resume and by the
// merge coordinator's Load, and so is a version-1 journal.jsonl store.
// Neither is ever half-loaded, and the refusal leaves the files as
// they were.
func TestResumeSnapshotLayout(t *testing.T) {
	const limit = 150
	clean, err := newRunner(resumeConfig(limit, 4)).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, name := range []string{"snapshot.jsonl", "journal.jsonl"} {
		dir := t.TempDir()
		interruptAt(t, resumeConfig(limit, 4), dir, clean.TotalServices/2)
		legacy := []byte(`{"trace":"0123456789abcdef","server":"Metro","class":"java.lang.Object","mode":"built"}` + "\n")
		if err := os.WriteFile(filepath.Join(dir, name), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(journaltest.Path(dir))
		if err != nil {
			t.Fatal(err)
		}
		cfg := resumeConfig(limit, 2)
		cfg.Checkpoint, cfg.Resume = dir, true
		if _, err := newRunner(cfg).Run(context.Background()); !errors.Is(err, journal.ErrVersion) {
			t.Errorf("resume beside %s: err = %v, want journal.ErrVersion", name, err)
		}
		if _, _, err := journal.Load(dir); !errors.Is(err, journal.ErrVersion) {
			t.Errorf("Load beside %s: err = %v, want journal.ErrVersion", name, err)
		}
		if after, err := os.ReadFile(journaltest.Path(dir)); err != nil || !bytes.Equal(before, after) {
			t.Errorf("a refused resume beside %s changed the journal (err %v)", name, err)
		}
	}
}

// TestResumeAfterRandomCut cuts a finished journal at seeded random
// offsets — inside a frame header, inside a payload, and exactly on
// frame boundaries — as a kill that tears a write would, and requires
// every resume to give a Result byte-identical to a clean run's.
func TestResumeAfterRandomCut(t *testing.T) {
	const limit = 100
	clean, err := newRunner(resumeConfig(limit, 4)).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cleanBytes := resultBytes(t, clean)
	full := t.TempDir()
	interruptAt(t, resumeConfig(limit, 4), full, -1)
	data, err := os.ReadFile(journaltest.Path(full))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(full, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	ends := journaltest.FrameEnds(t, full)
	rng := rand.New(rand.NewSource(19))
	frame := func() (start, end int64) {
		i := rng.Intn(len(ends))
		if i > 0 {
			start = ends[i-1]
		}
		return start, ends[i]
	}
	var cuts []int64
	for i := 0; i < 3; i++ {
		start, _ := frame()
		cuts = append(cuts, start+1+rng.Int63n(11)) // inside the 12-byte header
		start, end := frame()
		cuts = append(cuts, start+12+rng.Int63n(end-start-12)) // inside the payload
		_, end = frame()
		cuts = append(cuts, end) // on a boundary
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journaltest.Path(dir), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, _ := resume(t, resumeConfig(limit, 2), dir)
		if got := resultBytes(t, res); !bytes.Equal(got, cleanBytes) {
			t.Errorf("cut at byte %d of %d: resumed Result is not byte-identical to the clean run", cut, len(data))
		}
	}
}

// TestCommunicationAfterResume is the CLI's `-resume -report json`
// path: RunCommunication on the runner that resumed the static
// campaign must equal the clean runner's, whether the resume replayed
// part of the journal or all of it (shapes left unbuilt).
func TestCommunicationAfterResume(t *testing.T) {
	const limit = 60
	ctx := context.Background()
	cleanRunner := newRunner(resumeConfig(limit, 4))
	clean, err := cleanRunner.Run(ctx)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cleanComm, err := cleanRunner.RunCommunication(ctx)
	if err != nil {
		t.Fatalf("clean communication: %v", err)
	}
	for _, killAt := range []int{clean.TotalServices / 2, -1} {
		dir := t.TempDir()
		interruptAt(t, resumeConfig(limit, 4), dir, killAt)
		cfg := resumeConfig(limit, 2)
		cfg.Checkpoint, cfg.Resume = dir, true
		r := newRunner(cfg)
		res, err := r.Run(ctx)
		if err != nil {
			t.Fatalf("resume (kill %d): %v", killAt, err)
		}
		compareResults(t, clean, res)
		comm, err := r.RunCommunication(ctx)
		if err != nil {
			t.Fatalf("communication after resume (kill %d): %v", killAt, err)
		}
		if !reflect.DeepEqual(cleanComm, comm) {
			t.Errorf("kill %d: communication after resume differs:\nclean:   %+v\nresumed: %+v", killAt, cleanComm.Totals(), comm.Totals())
		}
	}
}

// TestJournalRecordChecks writes well-framed records in bad shapes —
// a code past the axis's catalog, a study code with bits outside
// outcomeMask|codeExecuted, a profile mask bit beyond the roster, and
// a code count that is not clients × columns — and requires resume and
// merge to refuse each with an error naming the record, before any
// fold.
func TestJournalRecordChecks(t *testing.T) {
	const limit = 6
	ctx := context.Background()
	r := newRunner(config{Limit: limit, Workers: 2})
	published, _, err := r.Publish(ctx, r.servers[0])
	if err != nil || len(published) == 0 {
		t.Fatalf("publish: %d services, err %v", len(published), err)
	}
	server, class := published[0].Server, published[0].Class
	nc := len(r.clients)
	study := func(mut func(rec *journal.Record)) journal.Record {
		rec := journal.Record{Server: server, Class: class, Mode: modeMemoFallback.id(), Published: true, Codes: make([]byte, nc)}
		mut(&rec)
		return rec
	}
	comm := func(mut func(rec *journal.Record)) journal.Record {
		rec := axisRecord(commAxis, server, class, make([]outcome, nc), make([]int, nc*commAxis.tallies))
		mut(&rec)
		return rec
	}
	for _, c := range []struct {
		name string
		ax   *Axis
		rec  journal.Record
		want string
	}{
		{"wire code past the catalog", commAxis,
			comm(func(rec *journal.Record) { rec.Codes[nc-1] = byte(len(commAxis.codes)) }), "past the"},
		{"study code with foreign bits", studyAxis,
			study(func(rec *journal.Record) { rec.Codes[0] = byte(codeExecuted) << 1 }), "past the"},
		{"profile mask beyond the roster", studyAxis,
			study(func(rec *journal.Record) { rec.Profiles = 1 << len(r.profiles) }), "profile mask"},
		{"study codes not clients × columns", studyAxis,
			study(func(rec *journal.Record) { rec.Codes = rec.Codes[1:] }), "outcome codes"},
		{"wire codes not clients × columns", commAxis,
			comm(func(rec *journal.Record) { rec.Codes = append(rec.Codes, 0) }), "outcome codes"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := journal.Open(c.ax.dir(dir), journal.Meta{Fingerprint: r.journalFingerprint(c.ax)}, false)
			if err != nil {
				t.Fatal(err)
			}
			recs := []journal.Record{c.rec}
			for _, s := range r.servers {
				recs = append(recs, journal.Record{Server: s.Name(), Mode: c.ax.complete()})
			}
			for _, rec := range recs {
				if err := j.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			named := c.rec.Class + " on " + c.rec.Server
			refused := func(what string, res any, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), named) || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: err = %v, want a %q refusal naming record %s", what, err, c.want, named)
				}
				if !reflect.ValueOf(res).IsNil() {
					t.Errorf("%s returned a result from a refused journal", what)
				}
			}
			resumer := newRunner(config{Limit: limit, Workers: 2, Checkpoint: dir, Resume: true})
			if c.ax == studyAxis {
				res, err := resumer.Run(ctx)
				refused("resume", res, err)
			} else {
				res, err := resumer.RunCommunication(ctx)
				refused("resume", res, err)
			}
			m, err := newRunner(config{Limit: limit, Workers: 2}).Merge(ctx, []string{dir})
			refused("merge", m, err)
		})
	}
}

// TestStageErrorInCatalogOrder forges two study records of an unknown
// publish route into a journal and resumes it at 8 workers, repeatedly:
// the stage must report the record that comes first in catalog order,
// whichever workers happened to replay the two.
func TestStageErrorInCatalogOrder(t *testing.T) {
	const limit = 60
	r := newRunner(config{Limit: limit})
	sp, err := r.planFor(r.servers[0])
	if err != nil {
		t.Fatal(err)
	}
	server := r.servers[0].Name()
	first, second := sp.defs[3].Parameter.Name, sp.defs[limit-2].Parameter.Name
	dir := t.TempDir()
	interruptAt(t, config{Limit: limit, Workers: 2}, dir, 0)
	j, err := journal.Open(dir, journal.Meta{Fingerprint: r.journalFingerprint(studyAxis)}, true)
	if err != nil {
		t.Fatal(err)
	}
	// The later class is journaled first, so journal order does not
	// decide either.
	for _, class := range []string{second, first} {
		if err := j.Append(journal.Record{Server: server, Class: class, Mode: "bogus"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Every resume starts from the forged journal: a failed resume still
	// journals the cells it finished.
	data, err := os.ReadFile(journaltest.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := first + " on " + server
	for i := 0; i < 20; i++ {
		run := t.TempDir()
		if err := os.WriteFile(journaltest.Path(run), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(run, "meta.json"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := newRunner(config{Limit: limit, Workers: 8, Checkpoint: run, Resume: true}).Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("resume %d: err = %v, want the unknown route of %s (record %s)", i, err, first, want)
		}
	}
}
