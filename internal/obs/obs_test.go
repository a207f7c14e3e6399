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

// TestTraceIDGolden pins the IDs themselves, not just their
// properties: journals, fingerprints and shard leases persist them, so
// a rewrite of the hash path must mint the same strings.
func TestTraceIDGolden(t *testing.T) {
	for _, c := range []struct {
		components []string
		want       string
	}{
		{nil, "e3b0c44298fc1c14"},
		{[]string{""}, "af5570f5a1810b7a"},
		{[]string{"", ""}, "374708fff7719dd5"},
		{[]string{"ab", "c"}, "601d5476e2ccfe2c"},
		{[]string{"a", "bc"}, "3fafa1cf2f19a7c1"},
		{[]string{"Metro", "java.lang.String", "gSOAP"}, "948ca0b00cb16cb2"},
		{[]string{"Metro", "java.lang.String", "gSOAP2"}, "68e6e995a3e6f926"},
		{[]string{"Metro", "resume"}, "b19aa0e7ce0fa36b"},
		{[]string{"daemon", "c1"}, "b0a45ba43ac8d903"},
		{[]string{"shard-lease", "fp", "0", "2"}, "42f510b263316c6d"},
		{[]string{"wsinterop-plan-v1", "0123456789abcdef", "1/2"}, "fc1fa34342022179"},
		{[]string{"ünïcødé", "\x00\xff"}, "8a6ebe90a4e75897"},
		// Longer than the stack buffer.
		{[]string{strings.Repeat("x", 1000), "y"}, "147ddcf4da06c493"},
	} {
		if got := TraceID(c.components...); got != c.want {
			t.Errorf("TraceID(%q) = %s, want %s", c.components, got, c.want)
		}
	}
}

// TestTraceIDAllocs pins a cell ID to one allocation: the returned
// string.
func TestTraceIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := testing.AllocsPerRun(100, func() { _ = TraceID("Metro", "java.lang.String", "gSOAP") })
	if allocs > 1 {
		t.Errorf("TraceID: %.0f allocs per call, want <= 1", allocs)
	}
}

// TestEventTraceOnRead holds the event log to the trace it derives on
// read: an event emitted without a trace reads back with its cell's
// TraceID(Server, Class, Client), an explicit trace is kept, and a read
// leaves Dropped as it was.
func TestEventTraceOnRead(t *testing.T) {
	var l EventLog
	for i := 0; i < eventLogCap+2; i++ {
		l.Append(Event{Stage: "communication", Server: "Metro", Class: "java.lang.String", Client: "gSOAP"})
	}
	l.Append(Event{Trace: "explicit", Stage: "plan", Server: "Metro"})
	dropped := l.Dropped()
	events := l.Events()
	if len(events) != eventLogCap {
		t.Fatalf("retained = %d, want %d", len(events), eventLogCap)
	}
	cell := TraceID("Metro", "java.lang.String", "gSOAP")
	for _, e := range events[:len(events)-1] {
		if e.Trace != cell {
			t.Fatalf("traceless event reads back with trace %q, want TraceID(server, class, client) = %q", e.Trace, cell)
		}
	}
	if e := events[len(events)-1]; e.Trace != "explicit" {
		t.Errorf("explicit trace read back as %q", e.Trace)
	}
	if dropped != 3 || l.Dropped() != dropped {
		t.Errorf("dropped = %d before the read and %d after, want 3 both times", dropped, l.Dropped())
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
