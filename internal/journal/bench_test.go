package journal

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// BenchmarkJournalAppend appends n records, each carrying a ~1.5 KB
// document like a campaign builder's WSDL, to a fresh store and closes
// it, under the campaign's group commit (FlushEvery 64). ns/record is
// the cost of one durable append; a store that only appends keeps it
// flat in n.
func BenchmarkJournalAppend(b *testing.B) {
	doc := bytes.Repeat([]byte("<wsdl:definitions/>"), 80) // 1,520 bytes
	for _, n := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("n=%dk", n>>10), func(b *testing.B) {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = record(i)
				recs[i].Doc = doc
			}
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				b.StopTimer()
				dir, err := os.MkdirTemp(b.TempDir(), "store")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				j, err := Open(dir, testMeta(), false)
				if err != nil {
					b.Fatal(err)
				}
				j.FlushEvery = 64
				for i := range recs {
					if err := j.Append(recs[i]); err != nil {
						b.Fatal(err)
					}
				}
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}

// campaignRecords returns n records shaped like a full campaign's
// cells: eleven client outcome codes each, every twentieth the verified
// builder of a shared shape carrying a ~1.5 KB document.
func campaignRecords(n int) []Record {
	doc := bytes.Repeat([]byte("<wsdl:definitions/>"), 80) // 1,520 bytes
	const clients = 11
	recs := make([]Record, n)
	for i := range recs {
		rec := Record{
			Server:    []string{"Metro", "JBossWS CXF", "WCF .NET"}[i%3],
			Class:     fmt.Sprintf("java.util.concurrent.Class%d", i),
			Mode:      []string{"memoized", "built"}[min(i%20, 1)],
			Published: i%9 != 0,
			Verified:  i%20 == 0,
			Compliant: true,
			Profiles:  1,
			Codes:     make([]byte, clients),
		}
		if i%20 == 0 {
			rec.Doc = doc
		}
		for ci := range rec.Codes {
			rec.Codes[ci] = 0x04 // compile ran
			if ci == 3 {
				rec.Codes[ci] |= 0x01 // generation warning
			}
			if i%20 == 0 {
				rec.Codes[ci] |= 0x20 // executed
			}
		}
		recs[i] = rec
	}
	return recs
}

// BenchmarkJournalLoad opens a finished store of n campaign-shaped
// records for resume: read, verify and decode every frame and index
// the records by trace. ns/record is the resume-side cost of one
// journaled cell.
func BenchmarkJournalLoad(b *testing.B) {
	for _, n := range []int{4 << 10, 22024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			writeStore(b, dir, testMeta(), campaignRecords(n))
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				j, err := Open(dir, testMeta(), true)
				if err != nil {
					b.Fatal(err)
				}
				if len(j.Loaded()) != n {
					b.Fatalf("loaded %d records, want %d", len(j.Loaded()), n)
				}
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}

// TestJournalLoadAllocs pins the resume-side allocations: a loaded
// record's strings alias one copy of the file and its slices are carved
// from shared slabs, so opening a store costs a handful of allocations
// per thousand records, not one or more per record.
func TestJournalLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 4096
	dir := t.TempDir()
	writeStore(t, dir, testMeta(), campaignRecords(n))
	allocs := testing.AllocsPerRun(10, func() {
		j, err := Open(dir, testMeta(), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord := allocs / n; perRecord > 0.05 {
		t.Errorf("opening a %d-record store: %.0f allocs, %.3f per record, want <= 0.05", n, allocs, perRecord)
	}
	t.Logf("%.0f allocs for %d records", allocs, n)
}
