// Package journal is the campaign's durable checkpoint store: an
// append-only log of completed campaign cells, keyed by the (server,
// class) each record carries (Key). A campaign run that is
// interrupted — SIGINT, SIGTERM, preemption, crash — leaves a journal
// from which a later run replays every completed cell instead of
// re-executing it, and the replayed-plus-executed Result is
// byte-identical to an uninterrupted run (internal/campaign, DESIGN.md
// §9).
//
// Durability model
//
//   - journal.wal: one binary frame per record (frame.go), a
//     length-prefixed payload checksummed with CRC-32C, appended and
//     flushed as each cell completes, and fsynced every SyncEvery
//     appends and at Close. The store only ever grows at its end:
//     nothing is rewritten, so appending costs the same at the
//     millionth record as at the first. A per-file dictionary spells
//     each server and mode name once.
//   - Torn tail vs corruption: a hard kill can leave a final frame cut
//     short, or followed by garbage. A frame cut short by the end of
//     the file is a torn tail, and so is a frame that fails a checksum
//     when no verifying frame header starts anywhere after it; Open
//     truncates the file back to the last verified frame. A failing
//     frame with a verifying header after it is mid-file corruption,
//     and the load is refused with a *CorruptError (ErrCorrupt).
//   - meta.json: the schema Version and the campaign configuration
//     fingerprint. Resuming under a different configuration (roster,
//     limit, variant, style, catalog source, compliance profiles) is
//     refused rather than silently merging incompatible cells. A
//     store of another schema version, including the JSONL layouts of
//     version 1 (journal.jsonl, and snapshot.jsonl from builds that
//     compacted), is refused with ErrVersion.
//   - Directory entries: creating the checkpoint directory, creating
//     journal.wal and renaming meta.json into place each fsync the
//     directory that holds the new entry, so a crash after Open cannot
//     lose the files the journal's durability rests on.

package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const (
	// DataFile is the name of the record file in a checkpoint
	// directory.
	DataFile = "journal.wal"
	metaFile = "meta.json"

	// Version is the record schema version stamped into meta.json:
	// 4 is the binary frame format whose records are keyed by their
	// server and class and carry outcome codes and a profile mask
	// (version 3 also stored a trace hash of the key, version 2 spelled
	// out per-client test flags, outcome names and profile IDs).
	Version = 4

	// SyncEvery is the append count between fsyncs of journal.wal:
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

// ErrVersion reports a checkpoint directory written in another schema
// version than this build's, including the JSONL layouts of version 1.
var ErrVersion = errors.New("journal: checkpoint was written in another journal format version")

// ErrCorrupt reports a journal whose damage is not a torn tail; every
// *CorruptError matches it under errors.Is.
var ErrCorrupt = errors.New("journal: corrupt")

// CorruptError locates mid-file corruption: the frame starting at
// Offset of the data file at Path is damaged in a way no torn write
// explains. It fails a checksum while a verifying frame header follows
// it, or it declares a length above the frame cap, or it verifies but
// does not decode.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: %s corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Is makes every CorruptError match ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

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

// Record is one journaled campaign cell — a (server, class) service of
// one campaign mode, complete with every client's outcomes — or a
// server stage's completion sentinel, the record of its server with an
// empty Class and the Mode "<axis>-complete". Server and Class are the
// record's key in its store (Key). Mode is the static study's publish
// route (fallback, built, memo-rejected, memo-fallback, memoized), so replay reconstructs memo statistics and the shape
// table, or a wire mode's name. Doc carries the serialized WSDL only
// on the verified builder of a shared shape, where it seeds the shape
// template on resume.
type Record struct {
	Server    string
	Class     string
	Mode      string
	Published bool
	Verified  bool
	Flagged   bool
	Compliant bool
	// Profiles is the roster-order bitmask of the compliance profiles
	// the published description satisfied.
	Profiles uint64
	Doc      []byte
	// Codes holds one outcome code per client × column, in roster and
	// column order. The journal's fingerprint pins the roster, the
	// columns and the code catalog, so no record spells them out.
	Codes []byte
	// Tallies holds a mode's integer tallies per client (the
	// communication mode's sniffed exchanges and message violations).
	Tallies []int
	// Collisions preserves a server stage's deploy path-collision count
	// on a completion sentinel; zero everywhere else.
	Collisions int
}

// Key is a record's identity in its store: the server and class of a
// cell, or the server of a stage's completion sentinel with an empty
// class. Each mode journals in its own store, so the pair is unique.
type Key struct{ Server, Class string }

// Key returns the record's key.
func (r *Record) Key() Key { return Key{r.Server, r.Class} }

// Journal is an open checkpoint store. Append must be serialized by
// the caller (the campaign writes from a single goroutine); the other
// methods are not safe for concurrent use either.
type Journal struct {
	f      *os.File
	w      *bufio.Writer
	enc    *encoder
	loaded map[Key]*Record

	// FlushEvery is the number of appends between durable flushes; 0
	// or 1 (the default) flushes every record before Append returns.
	// Larger values group-commit: records become durable at the next
	// flush boundary (every FlushEvery appends, at a sync point, at
	// Flush, or at Close), and a hard kill in between loses only the
	// unflushed tail — buffered frames reach the file whole except
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
// resume open verifies the meta identity, loads the journal, and
// truncates a torn tail so appends continue at the last verified frame.
func Open(dir string, meta Meta, resume bool) (*Journal, error) {
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if errors.Is(statErr, os.ErrNotExist) {
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return nil, err
		}
	}
	meta.Version = Version
	existing, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if err := checkVersion(dir, existing); err != nil {
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
	case existing.Fingerprint != meta.Fingerprint:
		return nil, fmt.Errorf("%w: %s", ErrFingerprint, dir)
	case !existing.Shard.equal(meta.Shard):
		return nil, fmt.Errorf("%w: %s holds %s, resuming as %s", ErrShard, dir,
			existing.Shard.describe(), meta.Shard.describe())
	}

	path := filepath.Join(dir, DataFile)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644); err == nil {
			if err := syncDir(dir); err != nil {
				_ = f.Close()
				return nil, err
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f}
	if err := j.load(path); err != nil {
		_ = f.Close()
		return nil, err
	}
	return j, nil
}

// load reads the data file, indexes its records and readies it for
// appends at the last verified frame, truncating a torn tail.
func (j *Journal) load(path string) error {
	data, err := readAll(j.f)
	if err != nil {
		return err
	}
	recs, dict, valid, err := decode(path, data)
	if err != nil {
		return err
	}
	j.loaded = make(map[Key]*Record, len(recs))
	for i := range recs {
		j.loaded[recs[i].Key()] = &recs[i]
	}
	if err := j.f.Truncate(valid); err != nil {
		return fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := j.f.Seek(valid, 0); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.w = bufio.NewWriter(j.f)
	j.enc = newEncoder(dict)
	return nil
}

// readAll reads the whole of f from its start.
func readAll(f *os.File) ([]byte, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	data := make([]byte, info.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return data, nil
}

// legacyFiles are the data files of schema version 1.
var legacyFiles = []string{"journal.jsonl", "snapshot.jsonl"}

// checkVersion refuses a store of another schema version: a meta.json
// stamped with another Version, or a data file of the version-1 JSONL
// layout, whatever its meta says.
func checkVersion(dir string, meta *Meta) error {
	for _, name := range legacyFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("%w: %s holds %s, a version-1 store this build does not read", ErrVersion, dir, name)
		}
	}
	if meta != nil && meta.Version != Version {
		return fmt.Errorf("%w: %s has schema version %d, this build reads %d", ErrVersion, dir, meta.Version, Version)
	}
	return nil
}

// hasState reports whether dir holds journal data.
func hasState(dir string) bool {
	info, err := os.Stat(filepath.Join(dir, DataFile))
	return err == nil && info.Size() > 0
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
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: sync %s: %w", dir, err)
	}
	return nil
}

// Loaded returns the records the store held when it was opened, keyed
// by Key; a key journaled twice keeps its last record. Appends do not
// add to it, so a resuming campaign may read it from any goroutine
// while its writer appends. Callers must not modify it.
func (j *Journal) Loaded() map[Key]*Record { return j.loaded }

// Append records one completed cell. With the default FlushEvery the
// frame is written and flushed before Append returns, so a kill after
// Append never loses the cell; a group-commit FlushEvery defers the
// flush to the next batch boundary. Every SyncEvery appends the file
// is flushed and fsynced, which also makes every pending record
// durable.
func (j *Journal) Append(rec Record) error {
	if rec.Server == "" {
		return errors.New("journal: record has no server")
	}
	frame, err := j.enc.frame(&rec)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
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
// writing: the meta identity plus every record in first-journaled
// order, a key journaled twice keeping its last record. It tolerates
// a torn tail exactly as a resume open would, but never truncates it —
// Load never mutates the store. It is the merge coordinator's view of
// a shard worker's journal.
func Load(dir string) (*Meta, []Record, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := checkVersion(dir, meta); err != nil {
		return nil, nil, err
	}
	if meta == nil {
		return nil, nil, fmt.Errorf("journal: %s holds no checkpoint (missing %s): %w", dir, metaFile, os.ErrNotExist)
	}
	path := filepath.Join(dir, DataFile)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, _, _, err := decode(path, data)
	if err != nil {
		return nil, nil, err
	}
	// Keep each key's last record at its first position.
	at := make(map[Key]int, len(recs))
	out := recs[:0]
	for _, rec := range recs {
		if i, seen := at[rec.Key()]; seen {
			out[i] = rec
			continue
		}
		at[rec.Key()] = len(out)
		out = append(out, rec)
	}
	return meta, out, nil
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
