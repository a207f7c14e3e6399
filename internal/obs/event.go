package obs

import "sync"

// Event is one structured campaign event: a lifecycle stage completing
// for one cell, correlated by trace ID. Events are a live diagnostic
// stream (the -debug endpoint serves them), not campaign outcome:
// retention is bounded and arrival order follows scheduling, so events
// sit outside the determinism contract.
type Event struct {
	// Trace is the event's correlation ID. An event emitted without
	// one reads back with its cell's: TraceID(Server, Class, Client),
	// derived by Events, so emitting a cell hashes nothing and a read
	// hashes at most the ring. Plan, resume and daemon events carry
	// their own.
	Trace string `json:"trace"`
	// Stage names the lifecycle stage ("publish", "wsi", "generate",
	// "compile", "communication", "robustness").
	Stage string `json:"stage"`
	// Server, Client and Class identify the cell; Client is empty for
	// server-only stages.
	Server string `json:"server,omitempty"`
	Client string `json:"client,omitempty"`
	Class  string `json:"class,omitempty"`
	// Detail carries the stage outcome ("ok", "fault", a fault name…).
	Detail string `json:"detail,omitempty"`
	// ElapsedNanos is the stage latency on the registry clock.
	ElapsedNanos int64 `json:"elapsedNanos"`
}

// eventLogCap bounds the retained event stream. The ring keeps the
// most recent events; older ones are dropped silently (Dropped counts
// them).
const eventLogCap = 512

// EventLog is a bounded ring of recent events. The zero value is
// ready.
type EventLog struct {
	mu      sync.Mutex
	ring    [eventLogCap]Event
	len     int
	next    int
	dropped int64
}

// Append records one event, evicting the oldest when full.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	l.ring[l.next] = e
	l.next = (l.next + 1) % eventLogCap
	if l.len < eventLogCap {
		l.len++
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// Events returns the retained events, oldest first, each with its
// trace: an empty one is filled with TraceID(Server, Class, Client).
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	out := make([]Event, 0, l.len)
	start := (l.next - l.len + eventLogCap) % eventLogCap
	for i := 0; i < l.len; i++ {
		out = append(out, l.ring[(start+i)%eventLogCap])
	}
	l.mu.Unlock()
	for i := range out {
		if e := &out[i]; e.Trace == "" {
			e.Trace = TraceID(e.Server, e.Class, e.Client)
		}
	}
	return out
}

// Dropped reports how many events the ring evicted.
func (l *EventLog) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
