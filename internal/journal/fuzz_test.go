package journal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalLoad feeds arbitrary bytes to Load as a store's data
// file. The loader must never panic or allocate past what the bytes
// can justify (every count is checked against the payload bytes left
// before anything is sized by it); it either returns records or a
// *CorruptError. Whatever loads must re-append into a fresh store and
// load back DeepEqual.
func FuzzJournalLoad(f *testing.F) {
	seed := f.TempDir()
	writeStore(f, seed, testMeta(), []Record{record(0), axisRecord(1), record(2), axisRecord(4)})
	valid, err := os.ReadFile(filepath.Join(seed, DataFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add(append(append([]byte(nil), valid...), make([]byte, 20)...))
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a frame"))
	// Version-4 corners: every study code byte, a full profile mask,
	// extreme tallies, and a lone sentinel (its server, no class).
	corners := f.TempDir()
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	writeStore(f, corners, testMeta(), []Record{
		{Server: "SrvA", Class: "pkg.Codes", Mode: "study", Published: true, Codes: all, Profiles: math.MaxUint64},
		{Server: "SrvB", Class: "pkg.Tallies", Mode: "comm", Published: true, Codes: []byte{4}, Tallies: []int{math.MinInt, math.MaxInt}},
		{Server: "SrvB", Mode: "comm-complete", Collisions: 3},
	})
	edge, err := os.ReadFile(filepath.Join(corners, DataFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(edge)
	f.Add(edge[:len(edge)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := writeMeta(dir, Meta{Version: Version, Fingerprint: testMeta().Fingerprint}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, DataFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, recs, err := Load(dir)
		if err != nil {
			var ce *CorruptError
			if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Offset < 0 || ce.Offset >= int64(len(data)) {
				t.Fatalf("Load: %v, want records or a *CorruptError inside the data", err)
			}
			return
		}
		again := t.TempDir()
		writeStore(t, again, testMeta(), recs)
		_, back, err := Load(again)
		if err != nil {
			t.Fatalf("reload of re-appended records: %v", err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("re-appended records load back different:\ngot  %+v\nwant %+v", back, recs)
		}
	})
}
