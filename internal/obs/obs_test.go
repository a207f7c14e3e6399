package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentSum(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(0)                    // first bucket
	h.Observe(time.Millisecond)     // inclusive upper bound: first bucket
	h.Observe(time.Millisecond + 1) // second bucket
	h.Observe(10 * time.Millisecond)
	h.Observe(time.Second) // +Inf
	h.Observe(-time.Second)

	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	if hs.Count != 6 {
		t.Errorf("count = %d, want 6", hs.Count)
	}
	// Negative observations clamp to zero, so the ≤1ms bucket holds 3.
	want := []BucketCount{
		{LENanos: int64(time.Millisecond), Count: 3},
		{LENanos: int64(10 * time.Millisecond), Count: 5},
		{LENanos: InfBucket, Count: 6},
	}
	if !reflect.DeepEqual(hs.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", hs.Buckets, want)
	}
	if hs.SumNanos != int64(time.Millisecond)+int64(time.Millisecond+1)+
		int64(10*time.Millisecond)+int64(time.Second) {
		t.Errorf("sum = %d", hs.SumNanos)
	}
}

func TestHistogramLayoutFixedAtCreation(t *testing.T) {
	r := NewRegistry()
	a := r.HistogramBuckets("h", []time.Duration{time.Millisecond})
	b := r.HistogramBuckets("h", []time.Duration{time.Second, time.Minute})
	if a != b {
		t.Fatal("same name should return the same histogram")
	}
	if len(a.bounds) != 1 {
		t.Errorf("layout changed after creation: %v", a.bounds)
	}
}

func TestGaugeHighWater(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if g.Value() != 2 {
		t.Errorf("value = %d, want 2", g.Value())
	}
	if g.Max() != 7 {
		t.Errorf("max = %d, want 7", g.Max())
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(5)
	r.Histogram("z").Observe(time.Second)
	r.Emit(Event{Stage: "publish"})
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 || r.Histogram("z").Count() != 0 {
		t.Error("nil registry instruments must stay zero")
	}
	if len(r.Events()) != 0 {
		t.Error("nil registry must retain no events")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
	if !r.Now().IsZero() || r.Since(time.Now()) != 0 {
		t.Error("nil registry clock must be inert")
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func(order []string) *Snapshot {
		r := NewRegistryWithClock(func() time.Time { return time.Time{} })
		for _, name := range order {
			r.Counter(name).Add(int64(len(name)))
			r.Histogram("h." + name).Observe(0)
		}
		return r.Snapshot()
	}
	var a, b bytes.Buffer
	if err := build([]string{"beta", "alpha", "gamma"}).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build([]string{"gamma", "beta", "alpha"}).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("snapshot JSON depends on creation order:\n%s\nvs\n%s", a.String(), b.String())
	}
	var parsed Snapshot
	if err := json.Unmarshal(a.Bytes(), &parsed); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign.publish.total").Add(7)
	r.Gauge("campaign.queue.depth").Set(3)
	r.Histogram("campaign.publish.seconds").Observe(2 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"campaign.publish.total", "7", "campaign.queue.depth",
		"campaign.publish.seconds", "≤2.5ms:1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestTraceIDDeterministicAndDistinct(t *testing.T) {
	a := TraceID("Metro", "java.lang.String", "gSOAP")
	if a != TraceID("Metro", "java.lang.String", "gSOAP") {
		t.Error("trace ID must be deterministic")
	}
	if len(a) != 16 {
		t.Errorf("trace ID length = %d, want 16", len(a))
	}
	if a == TraceID("Metro", "java.lang.String", "gSOAP2") {
		t.Error("different cells must get different IDs")
	}
	// Length prefixing: component boundaries matter.
	if TraceID("ab", "c") == TraceID("a", "bc") {
		t.Error("component boundaries must be part of the address")
	}
}

func TestEventLogRing(t *testing.T) {
	var l EventLog
	for i := 0; i < eventLogCap+10; i++ {
		l.Append(Event{Trace: TraceID("s", "c"), Stage: "publish", ElapsedNanos: int64(i)})
	}
	events := l.Events()
	if len(events) != eventLogCap {
		t.Fatalf("retained = %d, want %d", len(events), eventLogCap)
	}
	if events[0].ElapsedNanos != 10 || events[len(events)-1].ElapsedNanos != eventLogCap+9 {
		t.Errorf("ring order wrong: first=%d last=%d",
			events[0].ElapsedNanos, events[len(events)-1].ElapsedNanos)
	}
	if l.Dropped() != 10 {
		t.Errorf("dropped = %d, want 10", l.Dropped())
	}
}

func TestFrozenClockHistogramsAreZero(t *testing.T) {
	t0 := time.Date(2014, 6, 23, 10, 0, 0, 0, time.UTC)
	r := NewRegistryWithClock(func() time.Time { return t0 })
	start := r.Now()
	r.Histogram("stage.seconds").Observe(r.Since(start))
	snap := r.Snapshot()
	if snap.Histograms[0].SumNanos != 0 {
		t.Errorf("frozen clock should observe zero durations, sum=%d", snap.Histograms[0].SumNanos)
	}
	if snap.Histograms[0].Buckets[0].Count != 1 {
		t.Error("zero duration must land in the first bucket")
	}
}
