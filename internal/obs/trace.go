package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// TraceID mints the deterministic correlation ID for a campaign cell
// from its identifying components — typically (server, class) for a
// publish and (server, class, client) for a test cell. The ID is a
// content address: the same components always produce the same ID, so
// any two records of one cell (an event, a journal record) join without
// shared state. Components are length-prefixed before hashing, so
// ("ab","c") and ("a","bc") yield distinct IDs.
func TraceID(components ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, c := range components {
		binary.BigEndian.PutUint64(n[:], uint64(len(c)))
		h.Write(n[:])
		h.Write([]byte(c))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
