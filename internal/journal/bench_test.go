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
				recs[i].Trace = fmt.Sprintf("trace-%08d", i)
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
