package campaign

// Pins of the checkpoint journal's on-disk format and of what a resume
// rebuilds: every cell is appended exactly once, only the builders of
// multi-member shapes carry a document, a finished shape is never
// re-seeded, and a store in the older snapshot-plus-journal layout
// still resumes.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wsinterop/internal/journal"
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
	_, recs, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	executed := cfg.Obs.Counter("journal.cells.executed").Value()
	if int64(len(recs)) != executed {
		t.Errorf("journal holds %d records, run executed %d cells", len(recs), executed)
	}
	if len(recs) != res.TotalServices {
		t.Errorf("journal holds %d records, campaign has %d cells", len(recs), res.TotalServices)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != len(recs) {
		t.Errorf("journal.jsonl has %d lines for %d distinct records", lines, len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.jsonl")); !os.IsNotExist(err) {
		t.Errorf("a snapshot was written (stat err %v)", err)
	}
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
	byTrace := make(map[string]journal.Record, len(recs))
	for _, rec := range recs {
		byTrace[rec.Trace] = rec
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
			rec, ok := byTrace[cellTrace(server.Name(), sp.defs[g.Members[0]].Parameter.Name)]
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

// TestResumeSnapshotLayout resumes a checkpoint in the layout earlier
// builds wrote: the first part of the records compacted into
// snapshot.jsonl, the rest in journal.jsonl, and one snapshot record
// superseded by a journal record for the same trace. The journal's
// record must win, and the resumed Result must equal a clean run's.
func TestResumeSnapshotLayout(t *testing.T) {
	const limit = 150
	clean, err := newRunner(resumeConfig(limit, 4)).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cleanBytes := resultBytes(t, clean)
	dir := t.TempDir()
	interruptAt(t, resumeConfig(limit, 4), dir, clean.TotalServices/2)

	path := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	split := len(lines) / 2
	// The superseded snapshot copy of the first published cell claims
	// every client test failed generation; replaying it instead of the
	// journal's copy would change the Result.
	sup := -1
	var stale journal.Record
	for i := 0; i < split; i++ {
		if err := json.Unmarshal(lines[i], &stale); err != nil {
			t.Fatal(err)
		}
		if stale.Published {
			sup = i
			break
		}
	}
	if sup < 0 {
		t.Fatal("no published cell in the snapshot half")
	}
	for ti := range stale.Tests {
		stale.Tests[ti].GenError = !stale.Tests[ti].GenError
	}
	staleLine, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	var snap, live bytes.Buffer
	for i, line := range lines[:split] {
		if i == sup {
			snap.Write(append(staleLine, '\n'))
			continue
		}
		snap.Write(line)
	}
	live.Write(lines[sup])
	for _, line := range lines[split:] {
		live.Write(line)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.jsonl"), snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, live.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("load snapshot layout: %v", err)
	}
	if len(recs) != len(lines) {
		t.Errorf("Load returned %d records, the store holds %d distinct cells", len(recs), len(lines))
	}
	var want journal.Record
	if err := json.Unmarshal(lines[sup], &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs[sup], want) {
		t.Errorf("Load kept the snapshot's superseded record for %s", want.Trace)
	}

	res, snapMetrics := resume(t, resumeConfig(limit, 2), dir)
	compareResults(t, clean, res)
	if got := resultBytes(t, res); !bytes.Equal(got, cleanBytes) {
		t.Error("serialized Result is not byte-identical to the clean run")
	}
	compareSnapshots(t, "snapshot-layout", clean.Metrics, snapMetrics)
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
