package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testMeta() Meta { return Meta{Fingerprint: "fp-test"} }

func record(i int) Record {
	rec := Record{
		Server:    "SrvA",
		Class:     fmt.Sprintf("pkg.Class%d", i),
		Mode:      "built",
		Published: true,
		Verified:  i%2 == 0,
		Flagged:   i%7 == 0,
		Compliant: i%7 != 0,
		Doc:       []byte("<definitions/>"),
		Codes:     []byte{0x20 | byte(i%3), 0x04 | byte(i%5), 0x02},
		Profiles:  uint64(i % 4),
	}
	return rec
}

// axisRecord is a wire-axis record: two columns of outcome codes and
// two tallies per client, and on every fourth a completion sentinel's
// collisions, keyed by a server of its own and an empty class.
func axisRecord(i int) Record {
	rec := Record{
		Server:    "SrvB",
		Class:     fmt.Sprintf("pkg.Wire%d", i),
		Mode:      "robust",
		Published: true,
		Codes:     []byte{1, 2, 1, 1},
		Tallies:   []int{i, -i, 0, 0},
	}
	if i%4 == 0 {
		rec.Codes, rec.Tallies, rec.Mode, rec.Collisions = nil, nil, "robust-complete", i+1
		rec.Server, rec.Class = fmt.Sprintf("Stage%d", i), ""
	}
	return rec
}

// frameEnds returns the offset just past each verified frame of the
// data file in dir. (journaltest.FrameEnds imports this package, so
// in-package tests cannot use it.)
func frameEnds(t *testing.T, dir string) []int64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, DataFile))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for off := 0; off+headerSize <= len(data); {
		n, ok := headerAt(data, off)
		if !ok || off+headerSize+n > len(data) {
			break
		}
		off += headerSize + n
		ends = append(ends, int64(off))
	}
	return ends
}

// writeStore journals recs into a fresh store in dir.
func writeStore(t testing.TB, dir string, meta Meta, recs []Record) {
	t.Helper()
	j, err := Open(dir, meta, false)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	for i := range recs {
		if err := j.Append(recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// appendBytes appends raw bytes to the data file in dir.
func appendBytes(t *testing.T, dir string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, DataFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("reopen for tearing: %v", err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatalf("tear: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close torn file: %v", err)
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
		if i%2 == 1 {
			rec = axisRecord(i)
		}
		want = append(want, rec)
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if j.appended != 25 {
		t.Errorf("appended = %d, want 25", j.appended)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("open resume: %v", err)
	}
	defer func() { _ = j2.Close() }()
	loaded := j2.Loaded()
	if len(loaded) != len(want) {
		t.Errorf("reload holds %d records, want %d", len(loaded), len(want))
	}
	for _, rec := range want {
		if got := loaded[rec.Key()]; got == nil || !reflect.DeepEqual(*got, rec) {
			t.Errorf("record %v after reload differs:\ngot  %+v\nwant %+v", rec.Key(), got, rec)
		}
	}
	if _, got, err := Load(dir); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Load after reload differs (err %v):\ngot  %+v\nwant %+v", err, got, want)
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
	if n := len(j.Loaded()); n != 0 {
		t.Errorf("loaded %d records, want 0", n)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// tornFrame is the first n bytes of a frame journaling a record the
// five-record stores of the torn-tail tests do not hold.
func tornFrame(n int) []byte {
	rec := record(9999)
	frame, err := newEncoder(nil).frame(&rec)
	if err != nil {
		panic(err)
	}
	return append([]byte(nil), frame[:n]...)
}

// TestTornFinalLineRecovered is the hard-kill scenario: the process
// died mid-append, leaving a partial last frame, or the tail holds
// bytes no frame verifies. Reopening must drop exactly that tail, keep
// every complete record, and leave the file appendable at a clean
// frame boundary.
func TestTornFinalLineRecovered(t *testing.T) {
	for _, c := range []struct {
		name string
		tail []byte
	}{
		{"header cut", tornFrame(headerSize / 2)},
		{"payload cut", tornFrame(headerSize + 9)},
		{"garbage th", []byte("garbage that is not a frame")},
		// The torn JSON line a version-1 writer left is garbage here too.
		{`{"trace":"`, []byte(`{"trace":"trace-9999","server":"Srv`)},
		{"zero fill", make([]byte, 3*headerSize+5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var recs []Record
			for i := 0; i < 5; i++ {
				recs = append(recs, record(i))
			}
			writeStore(t, dir, testMeta(), recs)
			appendBytes(t, dir, c.tail)

			j2, err := Open(dir, testMeta(), true)
			if err != nil {
				t.Fatalf("resume over torn tail: %v", err)
			}
			if n := len(j2.Loaded()); n != 5 {
				t.Errorf("loaded %d records, want 5 (torn tail dropped)", n)
			}
			// The torn bytes must be gone: appending and reloading again
			// must decode cleanly.
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
			if n := len(j3.Loaded()); n != 6 {
				t.Errorf("loaded %d records after recovery append, want 6", n)
			}
		})
	}
}

// TestResumedWriterContinuesDictionary: a session that defines new
// dictionary entries in a frame a kill tears must leave no trace of
// them. The next session's writer continues the dictionary of the
// verified frames only, so the strings it defines, and its later
// references to them, load back as written.
func TestResumedWriterContinuesDictionary(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, testMeta(), []Record{record(0), record(1)})
	j, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatal(err)
	}
	torn := record(2)
	torn.Server, torn.Mode = "SrvTorn", "torn-mode"
	frame, err := j.enc.frame(&torn)
	if err != nil {
		t.Fatal(err)
	}
	appendBytes(t, dir, frame[:len(frame)-3])
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	want := []Record{record(0), record(1), record(3), record(4)}
	want[2].Server, want[3].Server = "SrvNew", "SrvNew"
	want[3].Mode = "torn-mode"
	j, err = Open(dir, testMeta(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range want[2:] {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got, err := Load(dir); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Load after a torn dictionary definition (err %v):\ngot  %+v\nwant %+v", err, got, want)
	}
}

// TestOversizeRecordRefused: a record whose frame would pass the size
// cap is refused at append, and the dictionary entries it would have
// defined are undone, so later records that use the same strings load.
func TestOversizeRecordRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatal(err)
	}
	big := record(0)
	big.Server, big.Doc = "SrvBig", make([]byte, maxPayload)
	if err := j.Append(big); err == nil {
		t.Fatal("a record over the frame cap was appended")
	}
	want := []Record{record(1), record(2)}
	want[0].Server, want[1].Server = "SrvBig", "SrvBig"
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got, err := Load(dir); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Load after a refused record (err %v):\ngot  %+v\nwant %+v", err, got, want)
	}
}

// TestServerlessRecordRefused: a record's server is the first half of
// its key, so Append refuses a record without one, and a verifying
// frame that decodes to one is corruption at its offset.
func TestServerlessRecordRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, testMeta(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Class: "pkg.Orphan", Mode: "built"}); err == nil {
		t.Error("a record without a server was appended")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	forged, err := newEncoder(nil).frame(&Record{Class: "pkg.Orphan", Mode: "built"})
	if err != nil {
		t.Fatal(err)
	}
	appendBytes(t, dir, forged)
	_, _, err = Load(dir)
	requireCorrupt(t, err, 0)
}

// requireCorrupt asserts err is a *CorruptError at offset, matching
// ErrCorrupt.
func requireCorrupt(t *testing.T, err error, offset int64) {
	t.Helper()
	var ce *CorruptError
	switch {
	case !errors.Is(err, ErrCorrupt):
		t.Fatalf("err = %v, want ErrCorrupt", err)
	case !errors.As(err, &ce):
		t.Fatalf("err = %v, want a *CorruptError", err)
	case ce.Offset != offset:
		t.Fatalf("corruption reported at offset %d, want %d (%v)", ce.Offset, offset, err)
	}
}

func TestMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, testMeta(), []Record{record(0), record(1), record(2)})
	path := filepath.Join(dir, DataFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Corrupt the SECOND frame's payload — not the tail — which
	// recovery must not silently skip.
	second := frameEnds(t, dir)[0]
	data[second+headerSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write corrupted: %v", err)
	}
	_, err = Open(dir, testMeta(), true)
	requireCorrupt(t, err, second)
	_, _, err = Load(dir)
	requireCorrupt(t, err, second)
	if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
		t.Error("a refused open changed the journal file")
	}
}

// TestByteFlipRefused flips each byte of every non-final frame in
// turn, length field and checksums included. Each flip must be refused
// as corruption at that frame's offset, never taken for a torn tail
// that would silently drop the valid records after it.
func TestByteFlipRefused(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, testMeta(), []Record{record(0), axisRecord(1), record(2), axisRecord(3)})
	data, err := os.ReadFile(filepath.Join(dir, DataFile))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, dir)
	start := int64(0)
	for _, end := range ends[:len(ends)-1] {
		for pos := start; pos < end; pos++ {
			flipped := append([]byte(nil), data...)
			flipped[pos] ^= 0x5a
			_, _, _, err := decode("journal.wal", flipped)
			var ce *CorruptError
			if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) || ce.Offset != start {
				t.Fatalf("flip at byte %d of the frame at %d: err = %v, want corruption at %d", pos, start, err, start)
			}
		}
		start = end
	}
	// The same holds through the store: a flipped length field.
	flipped := append([]byte(nil), data...)
	flipped[ends[0]+1] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, DataFile), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, testMeta(), true)
	requireCorrupt(t, err, ends[0])
}

// TestZeroFilledTailIsTorn: a file system can leave zeros where a
// crashed write's blocks were allocated but not written. Zeros verify
// as no frame header, so they are a torn tail however long.
func TestZeroFilledTailIsTorn(t *testing.T) {
	for _, n := range []int{1, headerSize, 4096} {
		dir := t.TempDir()
		writeStore(t, dir, testMeta(), []Record{record(0), record(1)})
		size := frameEnds(t, dir)[1]
		appendBytes(t, dir, make([]byte, n))
		if _, recs, err := Load(dir); err != nil || len(recs) != 2 {
			t.Fatalf("%d zero bytes: Load = %d records, %v; want 2, nil", n, len(recs), err)
		}
		j, err := Open(dir, testMeta(), true)
		if err != nil {
			t.Fatalf("%d zero bytes: %v", n, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if info, err := os.Stat(filepath.Join(dir, DataFile)); err != nil || info.Size() != size {
			t.Errorf("%d zero bytes: resume left the file at %v bytes, want %d", n, info, size)
		}
	}
}

// legacyStore writes a checkpoint directory in the version-1 layout:
// meta.json at version 1 and the JSONL data file name, with a JSONL
// record in it.
func legacyStore(t *testing.T, dir, name string) {
	t.Helper()
	if err := writeMeta(dir, Meta{Version: 1, Fingerprint: testMeta().Fingerprint}); err != nil {
		t.Fatal(err)
	}
	line := `{"trace":"trace-0000","server":"SrvA","class":"pkg.Class0","mode":"built"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLoadsBeforeJournal: a store written by a build that
// compacted into snapshot.jsonl is version 1 and is refused with
// ErrVersion — by a resume open, by a fresh open and by Load, even
// when a current meta.json and journal sit beside the snapshot — and
// the refusal leaves every file as it was.
func TestSnapshotLoadsBeforeJournal(t *testing.T) {
	old := t.TempDir()
	legacyStore(t, old, "snapshot.jsonl")
	mixed := t.TempDir()
	writeStore(t, mixed, testMeta(), []Record{record(0)})
	if err := os.WriteFile(filepath.Join(mixed, "snapshot.jsonl"), []byte(`{"trace":"trace-0001"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{old, mixed} {
		before := dirFiles(t, dir)
		for _, resume := range []bool{true, false} {
			if _, err := Open(dir, testMeta(), resume); !errors.Is(err, ErrVersion) {
				t.Errorf("open (resume %v) of a snapshot layout: err = %v, want ErrVersion", resume, err)
			}
		}
		if _, _, err := Load(dir); !errors.Is(err, ErrVersion) {
			t.Errorf("Load of a snapshot layout: err = %v, want ErrVersion", err)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(before, after) {
			t.Errorf("a refused snapshot layout was changed:\nbefore %v\nafter  %v", before, after)
		}
	}
}

// TestVersionOneRefused: a version-1 journal.jsonl store, and a meta
// of any other version — the version-3 layout whose records led with a
// trace hash among them — is refused with ErrVersion at Open and Load.
func TestVersionOneRefused(t *testing.T) {
	v1 := t.TempDir()
	legacyStore(t, v1, "journal.jsonl")
	var stamped []string
	for _, v := range []int{3, Version + 1} {
		dir := t.TempDir()
		writeStore(t, dir, testMeta(), []Record{record(0)})
		if err := writeMeta(dir, Meta{Version: v, Fingerprint: testMeta().Fingerprint}); err != nil {
			t.Fatal(err)
		}
		stamped = append(stamped, dir)
	}
	for _, dir := range append([]string{v1}, stamped...) {
		if _, err := Open(dir, testMeta(), true); !errors.Is(err, ErrVersion) {
			t.Errorf("resume of %s: err = %v, want ErrVersion", dir, err)
		}
		if _, _, err := Load(dir); !errors.Is(err, ErrVersion) {
			t.Errorf("Load of %s: err = %v, want ErrVersion", dir, err)
		}
	}
}

// dirFiles maps each file in dir to its content.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestDuplicateKeyLastWins: a (server, class) key appended twice keeps
// one record, and the newest must win on load; records that differ in
// either field are kept apart — among them a stage's completion
// sentinel (empty class) and a cell of the same server, and one class
// on two servers.
func TestDuplicateKeyLastWins(t *testing.T) {
	dir := t.TempDir()
	rec := record(1)
	dup := rec
	dup.Mode = "memoized"
	sentinel := Record{Server: rec.Server, Mode: "study-complete"}
	other := rec
	other.Server = "SrvOther"
	writeStore(t, dir, testMeta(), []Record{record(0), rec, record(2), sentinel, other, dup})
	_, recs, err := Load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	want := []Record{record(0), dup, record(2), sentinel, other}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("Load = %+v, want %+v (one record per key, the second with the last-written mode)", recs, want)
	}
	j2, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	defer func() { _ = j2.Close() }()
	loaded := j2.Loaded()
	if len(loaded) != len(want) {
		t.Errorf("loaded %d records, want %d", len(loaded), len(want))
	}
	for _, w := range want {
		if got := loaded[w.Key()]; got == nil || !reflect.DeepEqual(*got, w) {
			t.Errorf("loaded[%v] = %+v, want %+v", w.Key(), got, w)
		}
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
	if got := len(re.Loaded()); got != 7 {
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
	path := filepath.Join(dir, DataFile)
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
	if got := len(re.Loaded()); got != SyncEvery+2 {
		t.Errorf("reopened store holds %d records, want %d", got, SyncEvery+2)
	}
}

// TestFlushEveryTornTailRecovery drops the unflushed tail plus a torn
// final frame, as a hard kill mid-batch would, and requires the
// torn-tail recovery to surface every record before the tear untouched.
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
	// Simulate the kill: truncate the journal mid-frame.
	ends := frameEnds(t, dir)
	if len(ends) < 2 {
		t.Fatalf("journal has %d frames, need at least 2", len(ends))
	}
	last := ends[len(ends)-2] + (ends[len(ends)-1]-ends[len(ends)-2])/2
	if err := os.Truncate(filepath.Join(dir, DataFile), last); err != nil {
		t.Fatalf("tear journal: %v", err)
	}
	re, err := Open(dir, testMeta(), true)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer func() { _ = re.Close() }()
	if got := len(re.Loaded()); got != 8 {
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

// TestLoadReadOnly: Load sees every journal record, tolerates a torn
// final frame, never mutates the store, and refuses a store that holds
// an earlier build's snapshot.
func TestLoadReadOnly(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	for i := 0; i < 25; i++ {
		want = append(want, record(i))
	}
	// Records 0-9 come from a first session, 10-24 from a resumed one.
	writeStore(t, dir, shardMeta(0, 2), want[:10])
	j, err := Open(dir, shardMeta(0, 2), true)
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

	// Tear the final frame the way a hard kill would.
	path := filepath.Join(dir, DataFile)
	appendBytes(t, dir, tornFrame(40))
	torn, err := os.ReadFile(path)
	if err != nil {
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

	// Records 0-9 in a snapshot an earlier build compacted: refused.
	if err := os.WriteFile(filepath.Join(dir, "snapshot.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); !errors.Is(err, ErrVersion) {
		t.Errorf("Load beside a snapshot: err = %v, want ErrVersion", err)
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
