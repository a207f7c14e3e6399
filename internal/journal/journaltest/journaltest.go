// Package journaltest gives tests format-neutral control over the data
// file of a checkpoint store (internal/journal): where its frames end,
// cutting it back to a prefix of them, and tearing its tail the way a
// hard kill mid-write would.
package journaltest

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"wsinterop/internal/journal"
)

// headerSize is the journal's frame header; its first four bytes are
// the little-endian payload length.
const headerSize = 12

// Path is the data file of the store in dir.
func Path(dir string) string { return filepath.Join(dir, journal.DataFile) }

// FrameEnds returns the offset just past each whole frame of the data
// file in dir, in order. A trailing partial frame is not counted.
func FrameEnds(t testing.TB, dir string) []int64 {
	t.Helper()
	data, err := os.ReadFile(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for off := int64(0); off+headerSize <= int64(len(data)); {
		next := off + headerSize + int64(binary.LittleEndian.Uint32(data[off:]))
		if next > int64(len(data)) {
			break
		}
		ends = append(ends, next)
		off = next
	}
	return ends
}

// KeepFrames cuts the data file in dir back to its first n frames.
func KeepFrames(t testing.TB, dir string, n int) {
	t.Helper()
	ends := FrameEnds(t, dir)
	if n > len(ends) {
		t.Fatalf("the journal holds %d frames, cannot keep %d", len(ends), n)
	}
	size := int64(0)
	if n > 0 {
		size = ends[n-1]
	}
	if err := os.Truncate(Path(dir), size); err != nil {
		t.Fatal(err)
	}
}

// AppendTorn appends the first half of a copy of the data file's last
// frame: a record whose write a kill cut short.
func AppendTorn(t testing.TB, dir string) {
	t.Helper()
	ends := FrameEnds(t, dir)
	if len(ends) == 0 {
		t.Fatal("the journal holds no frame to tear")
	}
	data, err := os.ReadFile(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	start := int64(0)
	if len(ends) > 1 {
		start = ends[len(ends)-2]
	}
	last := data[start:ends[len(ends)-1]]
	f, err := os.OpenFile(Path(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(last[:len(last)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
