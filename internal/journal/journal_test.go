package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testMeta() Meta { return Meta{Fingerprint: "fp-test"} }

func record(i int) Record {
	return Record{
		Trace:     fmt.Sprintf("trace-%04d", i),
		Server:    "SrvA",
		Class:     fmt.Sprintf("pkg.Class%d", i),
		Mode:      "built",
		Published: true,
		Verified:  i%2 == 0,
		Doc:       []byte("<definitions/>"),
		Tests: []TestRecord{
			{Client: "c1", Ran: true, GenWarning: i%3 == 0},
			{Client: "c2", CompileRan: true, CompileError: i%5 == 0},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	var want []Record
	for i := 0; i < 25; i++ {
		rec := record(i)
		want = append(want, rec)
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if j.Appended() != 25 {
		t.Errorf("Appended = %d, want 25", j.Appended())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("open resume: %v", err)
	}
	defer func() { _ = j2.Close() }()
	if got := j2.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("records after reload differ:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestFreshOpenRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if err := j.Append(record(0)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := Open(dir, testMeta(), false); !errors.Is(err, ErrExists) {
		t.Errorf("second fresh open: err = %v, want ErrExists", err)
	}
}

func TestFingerprintMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := Open(dir, Meta{Fingerprint: "other"}, true); !errors.Is(err, ErrFingerprint) {
		t.Errorf("mismatched resume: err = %v, want ErrFingerprint", err)
	}
}

func TestResumeOnEmptyDirIsFresh(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("resume on empty dir: %v", err)
	}
	if j.Len() != 0 {
		t.Errorf("Len = %d, want 0", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestTornFinalLineRecovered is the hard-kill scenario: the process
// died mid-append, leaving a partial last line. Reopening must drop
// exactly that line, keep every complete record, and leave the file
// appendable at a clean boundary.
func TestTornFinalLineRecovered(t *testing.T) {
	for _, torn := range []string{
		`{"trace":"trace-9999","server":"Srv`, // cut mid-JSON, no newline
		`{"trace":"trace-9999"`,               // cut mid-JSON
		`garbage that is not JSON`,            // overwritten tail
		`{"server":"no-trace-field"}`,         // parses but invalid, final line
	} {
		t.Run(torn[:10], func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, testMeta(), false)
			if err != nil {
				t.Fatalf("open fresh: %v", err)
			}
			for i := 0; i < 5; i++ {
				if err := j.Append(record(i)); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			path := filepath.Join(dir, "journal.jsonl")
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatalf("reopen for tearing: %v", err)
			}
			if _, err := f.WriteString(torn); err != nil {
				t.Fatalf("tear: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("close torn file: %v", err)
			}

			j2, err := Open(dir, testMeta(), true)
			if err != nil {
				t.Fatalf("resume over torn tail: %v", err)
			}
			if j2.Len() != 5 {
				t.Errorf("Len = %d, want 5 (torn line dropped)", j2.Len())
			}
			// The torn bytes must be gone: appending and reloading again
			// must parse cleanly.
			if err := j2.Append(record(5)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := j2.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			j3, err := Open(dir, testMeta(), true)
			if err != nil {
				t.Fatalf("reload after recovery append: %v", err)
			}
			defer func() { _ = j3.Close() }()
			if j3.Len() != 6 {
				t.Errorf("Len after recovery append = %d, want 6", j3.Len())
			}
		})
	}
}

func TestMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Corrupt the SECOND line — not the tail — which recovery must not
	// silently skip.
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "XX" + lines[1][2:]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatalf("write corrupted: %v", err)
	}
	if _, err := Open(dir, testMeta(), true); err == nil {
		t.Error("mid-file corruption should refuse to load")
	}
}

// writeSnapshot hand-writes snapshot.jsonl the way earlier builds
// compacted their journal into it: one JSON record per line.
func writeSnapshot(t *testing.T, dir string, recs ...Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotLoadsBeforeJournal proves a store written by a build
// that compacted into snapshot.jsonl still resumes: the snapshot loads
// first, the journal second, the journal's record wins per trace, the
// order is first-seen, and appends land in the journal without ever
// rewriting the snapshot.
func TestSnapshotLoadsBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var snapRecs []Record
	for i := 0; i < 8; i++ {
		snapRecs = append(snapRecs, record(i))
	}
	snap := writeSnapshot(t, dir, snapRecs...)

	j, err = Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("resume over snapshot: %v", err)
	}
	if j.Len() != len(snapRecs) {
		t.Errorf("Len after snapshot load = %d, want %d", j.Len(), len(snapRecs))
	}
	const n = 11
	for i := len(snapRecs); i < n; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	superseded := record(3)
	superseded.Mode = "memoized"
	if err := j.Append(superseded); err != nil {
		t.Fatalf("append superseding record: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err != nil || !bytes.Equal(got, snap) {
		t.Errorf("snapshot rewritten by appends (err %v)", err)
	}
	lines, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(lines, []byte("\n")); got != n-len(snapRecs)+1 {
		t.Errorf("journal holds %d lines, want the %d appended", got, n-len(snapRecs)+1)
	}

	j2, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	defer func() { _ = j2.Close() }()
	var want []Record
	for i := 0; i < n; i++ {
		want = append(want, record(i))
	}
	want[3] = superseded
	if got := j2.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("records after reload differ:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDuplicateTraceLastWins: a trace appended twice keeps one record,
// and the newest must win on load.
func TestDuplicateTraceLastWins(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	rec := record(1)
	if err := j.Append(rec); err != nil {
		t.Fatalf("append: %v", err)
	}
	rec.Mode = "memoized"
	if err := j.Append(rec); err != nil {
		t.Fatalf("append dup: %v", err)
	}
	if j.Len() != 1 {
		t.Errorf("Len = %d, want 1 (dedup by trace)", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	j2, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	defer func() { _ = j2.Close() }()
	recs := j2.Records()
	if len(recs) != 1 || recs[0].Mode != "memoized" {
		t.Errorf("records = %+v, want single record with last-written mode", recs)
	}
}

func TestAfterAppendHook(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	defer func() { _ = j.Close() }()
	var seen []int
	j.AfterAppend = func(total int) { seen = append(seen, total) }
	for i := 0; i < 3; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if !reflect.DeepEqual(seen, []int{1, 2, 3}) {
		t.Errorf("AfterAppend saw %v, want [1 2 3]", seen)
	}
}

// TestFlushEveryGroupCommit exercises the batched-append contract:
// records become durable at flush boundaries (FlushEvery-th append,
// explicit Flush, sync point, Close), AfterAppend fires once per
// record in order at its durable point, and a reopened store replays
// everything that was flushed.
func TestFlushEveryGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	j.FlushEvery = 4
	var seen []int
	j.AfterAppend = func(total int) { seen = append(seen, total) }

	for i := 0; i < 6; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Appends 1-4 crossed the FlushEvery boundary; 5-6 are pending.
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("AfterAppend saw %v before explicit flush, want %v", seen, want)
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if want := []int{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("AfterAppend saw %v after flush, want %v", seen, want)
	}
	// A no-op flush must not re-notify.
	if err := j.Flush(); err != nil {
		t.Fatalf("idempotent flush: %v", err)
	}
	if len(seen) != 6 {
		t.Fatalf("no-op flush re-notified: %v", seen)
	}
	// Close flushes the pending tail.
	if err := j.Append(record(6)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if want := []int{1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("AfterAppend saw %v after close, want %v", seen, want)
	}

	re, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = re.Close() }()
	if got := len(re.Records()); got != 7 {
		t.Errorf("reopened store holds %d records, want 7", got)
	}
}

// TestFlushEverySyncPointIsDurable checks that the sync point mid-batch
// counts as the batch's durable point: every pending record reaches the
// file, AfterAppend fires for each in order, and nothing is lost on
// reopen.
func TestFlushEverySyncPointIsDurable(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	j.FlushEvery = 2 * SyncEvery // never reached
	var seen []int
	j.AfterAppend = func(total int) { seen = append(seen, total) }
	path := filepath.Join(dir, journalFile)
	var synced int64
	for i := 0; i < SyncEvery+2; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i == SyncEvery-2 && len(seen) != 0 {
			t.Fatalf("AfterAppend fired before the sync point: %d records", len(seen))
		}
		if i == SyncEvery-1 {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			synced = info.Size()
		}
	}
	// The sync point at append SyncEvery made 1..SyncEvery durable;
	// the last two pend.
	if len(seen) != SyncEvery {
		t.Fatalf("AfterAppend saw %d records after the sync point, want %d", len(seen), SyncEvery)
	}
	for i, total := range seen {
		if total != i+1 {
			t.Fatalf("AfterAppend saw %d at position %d, want %d", total, i, i+1)
		}
	}
	if info, err := os.Stat(path); err != nil || info.Size() != synced {
		t.Errorf("pending records reached the file before their flush (size %v, synced %d)", info, synced)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(seen) != SyncEvery+2 || seen[len(seen)-1] != SyncEvery+2 {
		t.Fatalf("AfterAppend saw %d records after close, want %d", len(seen), SyncEvery+2)
	}
	re, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = re.Close() }()
	if got := len(re.Records()); got != SyncEvery+2 {
		t.Errorf("reopened store holds %d records, want %d", got, SyncEvery+2)
	}
}

// TestFlushEveryTornTailRecovery drops the unflushed tail plus a torn
// final line, as a hard kill mid-batch would, and requires the lenient
// recovery path to surface every record before the tear untouched.
func TestFlushEveryTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	j.FlushEvery = 3
	for i := 0; i < 9; i++ {
		if err := j.Append(record(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate the kill: truncate the journal mid-line.
	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal has %d lines, need at least 2", len(lines))
	}
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatalf("tear journal: %v", err)
	}
	re, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer func() { _ = re.Close() }()
	if got := len(re.Records()); got != 8 {
		t.Errorf("torn reopen surfaced %d records, want 8", got)
	}
}

// shardMeta builds a shard-stamped Meta for the distributed tests.
func shardMeta(index, count int) Meta {
	return Meta{Fingerprint: "fp-test", Shard: &ShardMeta{Index: index, Count: count, Lease: fmt.Sprintf("lease-%d-%d", index, count)}}
}

func TestShardMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, shardMeta(1, 4), false)
	if err != nil {
		t.Fatalf("open sharded: %v", err)
	}
	if err := j.Append(record(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume under the identical shard identity succeeds.
	j2, err := Open(dir, shardMeta(1, 4), true)
	if err != nil {
		t.Fatalf("resume same shard: %v", err)
	}
	_ = j2.Close()

	// A different shard identity — or none — is refused.
	for _, meta := range []Meta{shardMeta(2, 4), shardMeta(1, 8), testMeta()} {
		if _, err := Open(dir, meta, true); !errors.Is(err, ErrShard) {
			t.Errorf("resume as %s: err = %v, want ErrShard", meta.Shard.describe(), err)
		}
	}
	// And a whole-campaign journal refuses a shard resume.
	plain := t.TempDir()
	jp, err := Open(plain, testMeta(), false)
	if err != nil {
		t.Fatal(err)
	}
	_ = jp.Close()
	if _, err := Open(plain, shardMeta(0, 2), true); !errors.Is(err, ErrShard) {
		t.Errorf("shard resume of whole-campaign journal: err = %v, want ErrShard", err)
	}
}

// TestLoadReadOnly: Load sees snapshot + journal records, tolerates a
// torn final journal line, and never mutates the store.
func TestLoadReadOnly(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, shardMeta(0, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 25; i++ {
		want = append(want, record(i))
	}
	// Records 0-9 sit in a snapshot an earlier build compacted; 10-24
	// are appended to the live journal.
	writeSnapshot(t, dir, want[:10]...)
	j, err = Open(dir, shardMeta(0, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range want[10:] {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final journal line the way a hard kill would.
	path := filepath.Join(dir, "journal.jsonl")
	pre, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, pre...), []byte(`{"trace":"torn`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	meta, recs, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if meta.Shard == nil || meta.Shard.Index != 0 || meta.Shard.Count != 2 {
		t.Errorf("loaded meta shard = %+v", meta.Shard)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("loaded records differ: got %d, want %d", len(recs), len(want))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, torn) {
		t.Error("Load mutated the journal file")
	}
	if _, _, err := Load(t.TempDir()); err == nil {
		t.Error("Load of an empty directory should fail")
	}
}

func TestCheckShards(t *testing.T) {
	sm := func(index, count int) *Meta {
		m := shardMeta(index, count)
		return &m
	}
	whole := &Meta{Version: Version, Fingerprint: "fp-test"}
	cases := []struct {
		name  string
		metas []*Meta
		ok    bool
	}{
		{"complete-pair", []*Meta{sm(0, 2), sm(1, 2)}, true},
		{"order-free", []*Meta{sm(1, 2), sm(0, 2)}, true},
		{"single-shard", []*Meta{sm(0, 1)}, true},
		{"whole-campaign", []*Meta{whole}, true},
		{"none", nil, false},
		{"missing", []*Meta{sm(0, 2)}, false},
		{"duplicate", []*Meta{sm(0, 2), sm(0, 2)}, false},
		{"mixed-count", []*Meta{sm(0, 2), sm(1, 3)}, false},
		{"whole-plus-shard", []*Meta{whole, sm(1, 2)}, false},
		{"index-out-of-range", []*Meta{&Meta{Fingerprint: "fp-test", Shard: &ShardMeta{Index: 2, Count: 2}}, sm(0, 2)}, false},
		{"mixed-fingerprint", []*Meta{sm(0, 2), {Fingerprint: "other", Shard: &ShardMeta{Index: 1, Count: 2}}}, false},
	}
	for _, c := range cases {
		if err := CheckShards(c.metas); (err == nil) != c.ok {
			t.Errorf("%s: CheckShards = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
