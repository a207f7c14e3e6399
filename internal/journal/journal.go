// Package journal is the campaign's durable checkpoint store: an
// append-only JSONL journal of completed campaign cells, keyed by the
// cell's content-addressed trace ID (obs.TraceID). A campaign run that
// is interrupted — SIGINT, SIGTERM, preemption, crash — leaves a
// journal from which a later run replays every completed cell instead
// of re-executing it, and the replayed-plus-executed Result is
// byte-identical to an uninterrupted run (internal/campaign, DESIGN.md
// §9).
//
// Durability model
//
//   - journal.jsonl: one JSON record per line, appended and flushed as
//     each cell completes, and fsynced every SyncEvery appends and at
//     Close. The store only ever grows at its end: nothing is rewritten,
//     so appending costs the same at the millionth record as at the
//     first. The final line may be torn by a hard kill; Open drops an
//     unparseable or newline-less final line and truncates the file
//     back to the last valid record. A torn line anywhere else is
//     corruption and refuses to load.
//   - snapshot.jsonl: never written. Stores from builds that compacted
//     their journal into a snapshot still load: the snapshot is read
//     first, then the journal, and the journal's record wins per trace.
//   - meta.json: the campaign configuration fingerprint. Resuming
//     under a different configuration (roster, limit, variant, memo
//     ablations) is refused rather than silently merging
//     incompatible cells.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

const (
	journalFile  = "journal.jsonl"
	snapshotFile = "snapshot.jsonl"
	metaFile     = "meta.json"

	// Version is the record schema version stamped into meta.json.
	Version = 1

	// SyncEvery is the append count between fsyncs of journal.jsonl:
	// a record reaches the file at its flush, and stable storage at the
	// next sync point or at Close.
	SyncEvery = 4096
)

// ErrExists reports that a checkpoint directory already holds state
// and the caller did not ask to resume. Refusing protects a completed
// or interrupted run's journal from accidental truncation.
var ErrExists = errors.New("journal: checkpoint state already exists (resume it, or point at an empty directory)")

// ErrFingerprint reports a resume attempt under a configuration that
// does not match the one the journal was written with.
var ErrFingerprint = errors.New("journal: checkpoint was written by a different campaign configuration")

// ErrShard reports a resume attempt under a shard lease that does not
// match the one the journal was written for: a worker must finish the
// slice it started, not a different one.
var ErrShard = errors.New("journal: checkpoint was written for a different shard lease")

// Meta identifies the run a journal belongs to.
type Meta struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Shard identifies the catalog slice a distributed worker journaled
	// (nil for a whole-campaign journal). The merge coordinator uses it
	// to verify that a set of journals tiles the campaign exactly once.
	Shard *ShardMeta `json:"shard,omitempty"`
	// Plan records the execution plan the session ran under (nil in
	// journals written without one). It is provenance, deliberately not
	// part of the resume identity check: the plan is a pure function of
	// the configuration Fingerprint already covers.
	Plan *PlanMeta `json:"plan,omitempty"`
}

// PlanMeta is the journal-side record of a campaign execution plan
// (internal/campaign plan.go): its content-addressed fingerprint and
// the catalog scale it covered.
type PlanMeta struct {
	Fingerprint string `json:"fingerprint"`
	Classes     int    `json:"classes,omitempty"`
	Shapes      int    `json:"shapes,omitempty"`
}

// ShardMeta is the journal-side record of one shard lease: which slice
// of the campaign this journal holds and the content-addressed lease ID
// the planner issued for it.
type ShardMeta struct {
	Index int    `json:"index"`
	Count int    `json:"count"`
	Lease string `json:"lease,omitempty"`
}

// equal reports whether two shard identities match; both-nil matches.
func (s *ShardMeta) equal(o *ShardMeta) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.Index == o.Index && s.Count == o.Count && s.Lease == o.Lease
}

// describe renders a shard identity for error messages.
func (s *ShardMeta) describe() string {
	if s == nil {
		return "the whole campaign"
	}
	return fmt.Sprintf("shard %d/%d", s.Index, s.Count)
}

// TestRecord is one client framework's classified outcome within a
// service cell. Ran distinguishes a test the run actually executed
// from one served by the structural-shape memo; resume replays the
// same distinction so memo statistics and stage counters reconstruct
// exactly.
type TestRecord struct {
	Client         string `json:"client"`
	Ran            bool   `json:"ran,omitempty"`
	GenWarning     bool   `json:"genW,omitempty"`
	GenError       bool   `json:"genE,omitempty"`
	CompileRan     bool   `json:"compileRan,omitempty"`
	CompileWarning bool   `json:"compileW,omitempty"`
	CompileError   bool   `json:"compileE,omitempty"`
}

// OutcomeRow is one client framework's classified outcomes within a
// wire-axis service cell (internal/campaign's communication,
// robustness and version modes): one outcome name per axis column, in
// the fixed column order the axis fingerprint pins, plus the axis's
// per-cell tallies (the communication axis's sniffed exchanges and
// message violations; nil on axes without any).
type OutcomeRow struct {
	Client   string   `json:"client"`
	Outcomes []string `json:"outcomes"`
	Tallies  []int    `json:"tallies,omitempty"`
}

// Record is one completed campaign cell: a (server, class) service
// that finished the description step — published or rejected — and,
// when published, every client test against it. Trace is the cell's
// content-addressed ID (obs.TraceID(server, class)); Mode is the
// campaign's publish route (direct, fallback, built, memo-rejected,
// memo-fallback, memoized) so replay reconstructs memo statistics and
// the shape table; Doc carries the serialized WSDL only for Mode
// "built" records, where it seeds the shape template on resume.
type Record struct {
	Trace     string `json:"trace"`
	Server    string `json:"server"`
	Class     string `json:"class"`
	Mode      string `json:"mode"`
	Published bool   `json:"published,omitempty"`
	Verified  bool   `json:"verified,omitempty"`
	Flagged   bool   `json:"flagged,omitempty"`
	Compliant bool   `json:"compliant,omitempty"`
	// Profiles lists the IDs of the compliance profiles the published
	// description satisfied (the per-profile verdict row of the
	// campaign's compliance matrix). The campaign fingerprint covers
	// the profile roster, so a nil list on a published record always
	// means "checked, compliant with none", never "not checked".
	Profiles []string     `json:"profiles,omitempty"`
	Doc      []byte       `json:"doc,omitempty"`
	Tests    []TestRecord `json:"tests,omitempty"`
	// Rows holds a wire-axis service cell's per-client outcome rows;
	// nil for static-campaign records.
	Rows []OutcomeRow `json:"rows,omitempty"`
	// Collisions preserves a server stage's deploy path-collision count
	// on a wire-axis completion sentinel; zero everywhere else.
	Collisions int `json:"collisions,omitempty"`
}

// Journal is an open checkpoint store. Append must be serialized by
// the caller (the campaign writes from a single goroutine); the other
// methods are not safe for concurrent use either.
type Journal struct {
	dir     string
	f       *os.File
	w       *bufio.Writer
	enc     *json.Encoder // one line per record into w
	records map[string]Record
	order   []string // trace IDs in first-seen order

	// FlushEvery is the number of appends between durable flushes; 0
	// or 1 (the default) flushes every record before Append returns.
	// Larger values group-commit: records become durable at the next
	// flush boundary (every FlushEvery appends, at a sync point, at
	// Flush, or at Close), and a hard kill in between loses only the
	// unflushed tail — buffered lines reach the file whole except
	// possibly the last, which torn-tail recovery already drops.
	FlushEvery int
	// AfterAppend, when non-nil, observes every durable append with
	// the total number of appends this session — the campaign's
	// kill-point test hook. Under a group-commit FlushEvery it fires
	// once per record, in order, when the batch holding the record
	// becomes durable.
	AfterAppend func(total int)

	appended   int
	sinceSync  int
	sinceFlush int
	notified   int
}

// Open opens (resume=true) or initializes (resume=false) the
// checkpoint store in dir, creating the directory as needed. A fresh
// open refuses a directory that already holds checkpoint state; a
// resume open loads the snapshot and journal, recovers a torn final
// journal line, and verifies the meta fingerprint.
func Open(dir string, meta Meta, resume bool) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	meta.Version = Version
	existing, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case existing == nil && hasState(dir):
		return nil, fmt.Errorf("journal: %s holds journal data but no meta.json — refusing to touch it", dir)
	case existing == nil:
		if err := writeMeta(dir, meta); err != nil {
			return nil, err
		}
	case !resume:
		return nil, fmt.Errorf("%w: %s", ErrExists, dir)
	case existing.Version != meta.Version:
		return nil, fmt.Errorf("journal: %s has schema version %d, this build writes %d", dir, existing.Version, meta.Version)
	case existing.Fingerprint != meta.Fingerprint:
		return nil, fmt.Errorf("%w: %s", ErrFingerprint, dir)
	case !existing.Shard.equal(meta.Shard):
		return nil, fmt.Errorf("%w: %s holds %s, resuming as %s", ErrShard, dir,
			existing.Shard.describe(), meta.Shard.describe())
	}

	j := &Journal{dir: dir, records: make(map[string]Record)}
	if err := j.loadFile(filepath.Join(dir, snapshotFile), false); err != nil {
		return nil, err
	}
	valid, err := j.loadJournal()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// Drop a torn final line so appends continue at the last valid
	// record boundary.
	if err := f.Truncate(valid); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.enc = json.NewEncoder(j.w)
	return j, nil
}

// hasState reports whether dir holds journal or snapshot data.
func hasState(dir string) bool {
	for _, name := range []string{journalFile, snapshotFile} {
		if info, err := os.Stat(filepath.Join(dir, name)); err == nil && info.Size() > 0 {
			return true
		}
	}
	return false
}

func readMeta(dir string) (*Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	m := &Meta{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("journal: meta.json corrupt: %w", err)
	}
	return m, nil
}

func writeMeta(dir string, meta Meta) error {
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return atomicWrite(dir, metaFile, append(data, '\n'))
}

// atomicWrite lands content at dir/name via a fsynced temporary file
// and rename, so readers never observe a partial file.
func atomicWrite(dir, name string, content []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer func() { _ = os.Remove(tmp.Name()) }()
	if _, err := tmp.Write(content); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// loadFile loads one JSONL file into the record map. With lenient
// false every line must parse; the journal file instead goes through
// loadJournal, which tolerates a torn final line.
func (j *Journal) loadFile(path string, lenient bool) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	_, err = j.consume(path, data, lenient)
	return err
}

// loadJournal loads journal.jsonl, dropping a torn final line, and
// returns the byte offset of the last valid record boundary.
func (j *Journal) loadJournal() (int64, error) {
	path := filepath.Join(j.dir, journalFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	return j.consume(path, data, true)
}

// consume parses JSONL content into the record map and returns the
// offset just past the last valid record. With lenient set, a final
// line that is incomplete (no trailing newline) or unparseable is
// dropped; an invalid line followed by more content is corruption.
func (j *Journal) consume(path string, data []byte, lenient bool) (int64, error) {
	offset := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		line, rest := data, []byte(nil)
		torn := nl < 0
		if !torn {
			line, rest = data[:nl], data[nl+1:]
		}
		var rec Record
		parseErr := json.Unmarshal(line, &rec)
		if parseErr == nil && rec.Trace == "" {
			parseErr = errors.New("record has no trace ID")
		}
		if parseErr != nil || torn {
			if lenient && len(bytes.TrimSpace(rest)) == 0 {
				// Torn final line: recoverable.
				return offset, nil
			}
			return 0, fmt.Errorf("journal: %s corrupt at offset %d: %v", path, offset, parseErr)
		}
		j.put(rec)
		offset += int64(nl + 1)
		data = rest
	}
	return offset, nil
}

func (j *Journal) put(rec Record) {
	if _, seen := j.records[rec.Trace]; !seen {
		j.order = append(j.order, rec.Trace)
	}
	j.records[rec.Trace] = rec
}

// Records returns the loaded-plus-appended records in first-seen
// order. The slice is a copy; records themselves are shared.
func (j *Journal) Records() []Record {
	out := make([]Record, 0, len(j.order))
	for _, trace := range j.order {
		out = append(out, j.records[trace])
	}
	return out
}

// Len reports the number of distinct records in the store.
func (j *Journal) Len() int { return len(j.records) }

// Appended reports the number of records appended this session.
func (j *Journal) Appended() int { return j.appended }

// Append records one completed cell. With the default FlushEvery the
// line is written and flushed before Append returns, so a kill after
// Append never loses the cell; a group-commit FlushEvery defers the
// flush to the next batch boundary. Every SyncEvery appends the file
// is flushed and fsynced, which also makes every pending record
// durable.
func (j *Journal) Append(rec Record) error {
	if rec.Trace == "" {
		return errors.New("journal: record has no trace ID")
	}
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.put(rec)
	j.appended++
	j.sinceSync++
	j.sinceFlush++
	switch fe := j.FlushEvery; {
	case j.sinceSync >= SyncEvery:
		return j.sync()
	case fe <= 1 || j.sinceFlush >= fe:
		return j.Flush()
	}
	return nil
}

// sync flushes the journal and pushes it to stable storage.
func (j *Journal) sync() error {
	if err := j.Flush(); err != nil {
		return err
	}
	j.sinceSync = 0
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Flush makes every appended record durable and notifies AfterAppend
// of each newly durable append. A no-op when nothing is pending.
func (j *Journal) Flush() error {
	if j.sinceFlush == 0 {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.sinceFlush = 0
	j.notifyDurable()
	return nil
}

// notifyDurable reports every append that has become durable since
// the last notification, one AfterAppend call per record in order —
// so hooks keyed on exact totals (the kill-point tests) see the same
// sequence whether or not appends were batched.
func (j *Journal) notifyDurable() {
	if j.AfterAppend == nil {
		j.notified = j.appended
		return
	}
	for j.notified < j.appended {
		j.notified++
		j.AfterAppend(j.notified)
	}
}

// Load reads the checkpoint store in dir without opening it for
// writing: the meta identity plus every record, snapshot first then
// journal, tolerating a torn final journal line exactly as a resume
// open would (but without truncating the file — Load never mutates the
// store). It is the merge coordinator's view of a shard worker's
// journal.
func Load(dir string) (*Meta, []Record, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	if meta == nil {
		return nil, nil, fmt.Errorf("journal: %s holds no checkpoint (missing %s)", dir, metaFile)
	}
	if meta.Version != Version {
		return nil, nil, fmt.Errorf("journal: %s has schema version %d, this build reads %d", dir, meta.Version, Version)
	}
	j := &Journal{records: make(map[string]Record)}
	if err := j.loadFile(filepath.Join(dir, snapshotFile), false); err != nil {
		return nil, nil, err
	}
	j.dir = dir
	if _, err := j.loadJournal(); err != nil {
		return nil, nil, err
	}
	return meta, j.Records(), nil
}

// CheckShards verifies that a set of journal identities tiles one
// campaign exactly once: same schema version and configuration
// fingerprint everywhere, and the shard identities are 0..Count-1 of a
// single Count with no slice missing or duplicated. A single
// whole-campaign journal (nil Shard) is also a valid tiling.
func CheckShards(metas []*Meta) error {
	if len(metas) == 0 {
		return errors.New("journal: no shard journals to check")
	}
	first := metas[0]
	for _, m := range metas[1:] {
		if m.Version != first.Version {
			return fmt.Errorf("journal: mixed schema versions %d and %d", first.Version, m.Version)
		}
		if m.Fingerprint != first.Fingerprint {
			return fmt.Errorf("%w: shard journals disagree on the campaign fingerprint", ErrFingerprint)
		}
	}
	if first.Shard == nil {
		if len(metas) > 1 {
			return errors.New("journal: a whole-campaign journal cannot be merged with shard journals")
		}
		return nil
	}
	count := first.Shard.Count
	if count != len(metas) {
		return fmt.Errorf("journal: %d journals for a %d-shard campaign", len(metas), count)
	}
	seen := make([]bool, count)
	for _, m := range metas {
		sh := m.Shard
		switch {
		case sh == nil:
			return errors.New("journal: a whole-campaign journal cannot be merged with shard journals")
		case sh.Count != count:
			return fmt.Errorf("journal: shard %d/%d mixed into a %d-shard merge", sh.Index, sh.Count, count)
		case sh.Index < 0 || sh.Index >= count:
			return fmt.Errorf("journal: shard index %d out of range for count %d", sh.Index, count)
		case seen[sh.Index]:
			return fmt.Errorf("journal: shard %d/%d appears twice", sh.Index, count)
		}
		seen[sh.Index] = true
	}
	return nil
}

// Close flushes and syncs the journal file. The store stays loadable
// afterwards; a completed run's journal simply replays in full.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
