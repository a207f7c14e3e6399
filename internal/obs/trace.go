package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// traceIDBuf sizes TraceID's stack buffer: cell, plan and lease IDs
// fit, so they hash without a heap allocation; a longer input (a
// configuration fingerprint's parts) grows it onto the heap.
const traceIDBuf = 256

// TraceID mints the deterministic correlation ID for a campaign cell
// from its identifying components — typically (server, class) for a
// publish and (server, class, client) for a test cell. The ID is a
// content address: the same components always produce the same ID, so
// any two records of one cell (an event, a journal record) join without
// shared state. Components are length-prefixed before hashing, so
// ("ab","c") and ("a","bc") yield distinct IDs. The ID is the hex of
// the SHA-256's first 8 bytes; the returned string is the one
// allocation of a call whose input fits the stack buffer.
func TraceID(components ...string) string {
	var buf [traceIDBuf]byte
	b := buf[:0]
	for _, c := range components {
		b = binary.BigEndian.AppendUint64(b, uint64(len(c)))
		b = append(b, c...)
	}
	sum := sha256.Sum256(b)
	var id [16]byte
	hex.Encode(id[:], sum[:8])
	return string(id[:])
}
