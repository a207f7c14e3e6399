package journal

// The record codec of journal.wal. A frame is a 12-byte header — the
// payload length (u32), the CRC-32C of the payload and the CRC-32C of
// the first 8 header bytes, all little-endian — followed by the
// payload. The payload lays out one Record's fields in a fixed order:
//
//	server     dict
//	class      literal
//	mode       dict
//	flags      byte: published, verified, flagged, compliant
//	profiles   uvarint: the verdict mask
//	doc        uvarint length, then the raw bytes
//	codes      uvarint length, then one byte per code
//	tallies    uvarint count, then a varint each
//	collisions varint
//
// A literal is a uvarint length and the bytes. A dict string is a
// uvarint: 0 defines the next dictionary entry with a literal that
// follows, and n > 0 refers to entry n-1. The dictionary spans the
// file, so the few server and mode names are spelled once per file
// rather than once per record.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// headerSize is the frame header: payload length, payload CRC and
	// header CRC.
	headerSize = 12

	// maxPayload caps a frame's payload. A longer length is refused at
	// append, and at load it is corruption, rejected before anything is
	// allocated for the frame.
	maxPayload = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record flag bits.
const (
	flagPublished = 1 << iota
	flagVerified
	flagFlagged
	flagCompliant
)

// errPayload reports a payload that passed its checksum but does not
// decode: corruption, since the writer never produces one.
var errPayload = errors.New("malformed record payload")

// encoder appends frames to a buffer, defining dictionary entries as
// it first meets them.
type encoder struct {
	dict  map[string]uint64 // string → entry index
	added []string          // entries the frame being encoded defined
	buf   []byte
}

func newEncoder(entries []string) *encoder {
	e := &encoder{dict: make(map[string]uint64, len(entries))}
	for i, s := range entries {
		e.dict[s] = uint64(i)
	}
	return e
}

// frame encodes rec as one frame into e.buf, replacing its contents.
// The dictionary entries a returned frame defines stay defined: a
// write error is sticky on the journal's writer, so no frame after one
// that never reached the file is written. A record over the size cap
// is refused with its definitions undone.
func (e *encoder) frame(rec *Record) ([]byte, error) {
	e.added = e.added[:0]
	b := append(e.buf[:0], make([]byte, headerSize)...)
	b = e.appendDict(b, rec.Server)
	b = appendLiteral(b, rec.Class)
	b = e.appendDict(b, rec.Mode)
	b = append(b, bits(rec.Published, flagPublished)|bits(rec.Verified, flagVerified)|
		bits(rec.Flagged, flagFlagged)|bits(rec.Compliant, flagCompliant))
	b = binary.AppendUvarint(b, rec.Profiles)
	b = binary.AppendUvarint(b, uint64(len(rec.Doc)))
	b = append(b, rec.Doc...)
	b = binary.AppendUvarint(b, uint64(len(rec.Codes)))
	b = append(b, rec.Codes...)
	b = binary.AppendUvarint(b, uint64(len(rec.Tallies)))
	for _, v := range rec.Tallies {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, int64(rec.Collisions))
	e.buf = b
	payload := b[headerSize:]
	if len(payload) > maxPayload {
		for _, s := range e.added {
			delete(e.dict, s)
		}
		return nil, fmt.Errorf("journal: record %s on %s exceeds the %d-byte frame cap", rec.Class, rec.Server, maxPayload)
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(b[8:12], crc32.Checksum(b[:8], castagnoli))
	return b, nil
}

func (e *encoder) appendDict(b []byte, s string) []byte {
	if i, ok := e.dict[s]; ok {
		return binary.AppendUvarint(b, i+1)
	}
	e.dict[s] = uint64(len(e.dict))
	e.added = append(e.added, s)
	return appendLiteral(append(b, 0), s)
}

func appendLiteral(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func bits(set bool, bit byte) byte {
	if set {
		return bit
	}
	return 0
}

// headerAt reports whether a frame header that passes its own checksum
// starts at data[off:], and the payload length it declares.
func headerAt(data []byte, off int) (n int, ok bool) {
	if len(data)-off < headerSize {
		return 0, false
	}
	h := data[off : off+headerSize]
	if crc32.Checksum(h[:8], castagnoli) != binary.LittleEndian.Uint32(h[8:12]) {
		return 0, false
	}
	return int(binary.LittleEndian.Uint32(h[0:4])), true
}

// countFrames counts the frames the length fields of data chain
// through, unverified: a capacity hint for the records a load yields.
func countFrames(data []byte) int {
	n := 0
	for off := int64(0); int64(len(data))-off >= headerSize; n++ {
		off += headerSize + int64(binary.LittleEndian.Uint32(data[off:]))
	}
	return n
}

// verifiedAfter reports whether a verifying frame header starts
// anywhere in data after off.
func verifiedAfter(data []byte, off int) bool {
	for p := off + 1; p+headerSize <= len(data); p++ {
		if _, ok := headerAt(data, p); ok {
			return true
		}
	}
	return false
}

// decode walks a data file's frames and returns the verified records
// in file order, the dictionary they define and the offset just past
// the last of them. A torn tail ends the walk there; mid-file
// corruption is a *CorruptError.
func decode(path string, data []byte) (recs []Record, dict []string, valid int64, err error) {
	d := &decoder{data: data, text: string(data)}
	recs = make([]Record, 0, countFrames(data))
	for {
		var rec Record
		ok, err := d.next(&rec)
		if err != nil {
			return nil, nil, 0, &CorruptError{Path: path, Offset: int64(d.off), Reason: err.Error()}
		}
		if !ok {
			return recs, d.dict, int64(d.off), nil
		}
		recs = append(recs, rec)
	}
}

// decoder reads frames out of one file's bytes. Strings alias text, a
// single string copy of the file, and documents and codes alias data,
// so a loaded record costs no allocation beyond its tallies.
type decoder struct {
	data []byte
	text string
	dict []string
	off  int // start of the next frame

	// ints is the slab the records' Tallies are carved from.
	ints []int

	// payload cursor and its sticky error
	p, end int
	err    error
}

// next decodes the frame at d.off into rec and advances past it. It
// reports false, leaving d.off in place, at the end of the verified
// frames: the end of the file, or a torn tail — a frame cut short by
// the end of the file, or one failing a checksum with no verifying
// header after it — which the caller drops. An error is corruption of
// the frame at d.off.
func (d *decoder) next(rec *Record) (bool, error) {
	if d.off == len(d.data) {
		return false, nil
	}
	n, ok := headerAt(d.data, d.off)
	switch {
	case !ok && len(d.data)-d.off < headerSize:
		return false, nil
	case !ok:
		return false, d.damaged(errors.New("frame header checksum mismatch"))
	case n > maxPayload:
		return false, errors.New("frame length above the cap")
	case n > len(d.data)-d.off-headerSize:
		return false, nil
	}
	d.p, d.end = d.off+headerSize, d.off+headerSize+n
	if crc32.Checksum(d.data[d.p:d.end], castagnoli) != binary.LittleEndian.Uint32(d.data[d.off+4:]) {
		return false, d.damaged(errors.New("frame payload checksum mismatch"))
	}
	if err := d.record(rec); err != nil {
		return false, err
	}
	d.off = d.end
	return true, nil
}

// damaged classifies a frame that failed a checksum: cause when a
// verifying frame header starts after it (mid-file corruption), nil
// when nothing does (a torn tail).
func (d *decoder) damaged(cause error) error {
	if verifiedAfter(d.data, d.off) {
		return cause
	}
	return nil
}

// record decodes the verified payload d.data[d.p:d.end] into rec.
func (d *decoder) record(rec *Record) error {
	d.err = nil
	*rec = Record{}
	rec.Server = d.str()
	rec.Class = d.literal()
	rec.Mode = d.str()
	flags := d.byte()
	rec.Published = flags&flagPublished != 0
	rec.Verified = flags&flagVerified != 0
	rec.Flagged = flags&flagFlagged != 0
	rec.Compliant = flags&flagCompliant != 0
	rec.Profiles = d.uvarint()
	rec.Doc = d.bytes()
	rec.Codes = d.bytes()
	if n := d.count(); n > 0 {
		rec.Tallies = carve(&d.ints, n)
		for i := range rec.Tallies {
			rec.Tallies[i] = d.varint()
		}
	}
	rec.Collisions = d.varint()
	switch {
	case d.err != nil:
		return d.err
	case rec.Server == "":
		return errors.New("record has no server")
	case d.p != d.end:
		return errors.New("trailing bytes after the record")
	}
	return nil
}

// The payload readers below share one sticky error: after the first
// malformed field each returns a zero value, so record checks d.err
// once at the end.

func (d *decoder) byte() byte {
	if d.err != nil || d.p >= d.end {
		d.err = errPayload
		return 0
	}
	d.p++
	return d.data[d.p-1]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, w := binary.Uvarint(d.data[d.p:d.end])
	if w <= 0 {
		d.err = errPayload
		return 0
	}
	d.p += w
	return v
}

func (d *decoder) varint() int {
	if d.err != nil {
		return 0
	}
	v, w := binary.Varint(d.data[d.p:d.end])
	if w <= 0 || v < math.MinInt || v > math.MaxInt {
		d.err = errPayload
		return 0
	}
	d.p += w
	return int(v)
}

// count reads a length or element count. Every counted element takes
// at least one payload byte, so a count past the payload's remaining
// bytes is malformed — the check that keeps a hostile count from
// allocating.
func (d *decoder) count() int {
	v := d.uvarint()
	if v > uint64(d.end-d.p) {
		d.err = errPayload
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed byte string, aliasing data; nil when
// empty.
func (d *decoder) bytes() []byte {
	n := d.count()
	if n == 0 {
		return nil
	}
	b := d.data[d.p : d.p+n : d.p+n]
	d.p += n
	return b
}

func (d *decoder) literal() string {
	n := d.count()
	s := d.text[d.p : d.p+n]
	d.p += n
	return s
}

func (d *decoder) str() string {
	switch v := d.uvarint(); {
	case d.err != nil:
		return ""
	case v == 0:
		s := d.literal()
		if d.err == nil {
			d.dict = append(d.dict, s)
		}
		return s
	case v > uint64(len(d.dict)):
		d.err = errPayload
		return ""
	default:
		return d.dict[v-1]
	}
}

// slabSize is the element count of a fresh slab: records carve their
// tallies out of shared backing arrays, one allocation per slab.
const slabSize = 1024

// carve returns an n-element slice cut from the slab, with its
// capacity clipped so an append to it cannot reach a neighbour.
func carve(slab *[]int, n int) []int {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]int, 0, max(n, slabSize))
	}
	l := len(s)
	*slab = s[:l+n]
	return s[l : l+n : l+n]
}
