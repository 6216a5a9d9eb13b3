package subscribe

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fields"
	"repro/internal/stream"
	"repro/internal/tuple"
)

// The notify body is a deterministic uvarint-framed encoding, built once per
// (query, level) per window and shared byte-for-byte by every subscriber:
//
//	header:  uvarint window | uvarint qid | uvarint level
//	payload: uvarint len(schema) | schema field IDs (one byte each)
//	         uvarint len(tuples)
//	         per tuple: uvarint len(row)
//	           per value: u8 tag (0 = uint, 1 = string)
//	             tag 0: uvarint U
//	             tag 1: uvarint len | raw bytes
//
// gob is deliberately avoided on this path: its per-stream type preamble
// would make the first frame differ from later ones, and its map ordering
// is nondeterministic. The fingerprint used for OnChange dedup covers the
// payload only, so the same result in two different windows hashes equal.

// appendHeader appends the window/instance header.
func appendHeader(b []byte, window int, key stream.QueryKey) []byte {
	b = binary.AppendUvarint(b, uint64(window))
	b = binary.AppendUvarint(b, uint64(key.QID))
	b = binary.AppendUvarint(b, uint64(key.Level))
	return b
}

// appendResult appends the payload for one result. Tuple order is the
// engine's output order, which the runtime guarantees is identical across
// worker counts — so the encoding is bit-identical too.
func appendResult(b []byte, res *stream.Result) []byte {
	b = binary.AppendUvarint(b, uint64(len(res.Schema)))
	for _, f := range res.Schema {
		b = append(b, byte(f))
	}
	b = binary.AppendUvarint(b, uint64(len(res.Tuples)))
	for _, row := range res.Tuples {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for i := range row {
			v := &row[i]
			if v.Str {
				b = append(b, 1)
				b = binary.AppendUvarint(b, uint64(len(v.S)))
				b = append(b, v.S...)
			} else {
				b = append(b, 0)
				b = binary.AppendUvarint(b, v.U)
			}
		}
	}
	return b
}

// fingerprint is FNV-1a over the payload bytes.
func fingerprint(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range p {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// DecodeUpdate parses one MsgNotify body.
func DecodeUpdate(body []byte) (Update, error) {
	d := decoder{buf: body}
	window := d.uvarint()
	qid := d.uvarint()
	level := d.uvarint()
	nSchema := d.uvarint()
	u := Update{Window: int(window), QID: uint16(qid), Level: uint8(level)}
	if d.err == nil && nSchema > uint64(len(body)) {
		return u, fmt.Errorf("subscribe: schema length %d exceeds frame", nSchema)
	}
	for i := uint64(0); i < nSchema && d.err == nil; i++ {
		u.Schema = append(u.Schema, fields.ID(d.byte()))
	}
	nTuples := d.uvarint()
	if d.err == nil && nTuples > uint64(len(body)) {
		return u, fmt.Errorf("subscribe: tuple count %d exceeds frame", nTuples)
	}
	for i := uint64(0); i < nTuples && d.err == nil; i++ {
		rowLen := d.uvarint()
		if d.err == nil && rowLen > uint64(len(body)) {
			return u, fmt.Errorf("subscribe: row length %d exceeds frame", rowLen)
		}
		row := make([]tuple.Value, 0, rowLen)
		for j := uint64(0); j < rowLen && d.err == nil; j++ {
			switch tag := d.byte(); tag {
			case 0:
				row = append(row, tuple.Value{U: d.uvarint()})
			case 1:
				row = append(row, tuple.Value{S: d.str(), Str: true})
			default:
				if d.err == nil {
					d.err = fmt.Errorf("subscribe: unknown value tag %d", tag)
				}
			}
		}
		u.Tuples = append(u.Tuples, row)
	}
	if d.err != nil {
		return u, d.err
	}
	if d.off != len(body) {
		return u, fmt.Errorf("subscribe: %d trailing bytes after update", len(body)-d.off)
	}
	return u, nil
}

// decoder is a cursor over a frame body; the first malformed read latches
// err and every later read no-ops, so call sites stay linear.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("subscribe: truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = fmt.Errorf("subscribe: truncated frame at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) { // not d.off+n, which a length near 2^64 wraps
		d.err = fmt.Errorf("subscribe: string length %d exceeds frame", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
