// WAL record codec. Each durable mutation is one framed record:
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload
//
// The payload is a compact binary encoding of (user, op): a kind byte, the
// owner name, then kind-specific fields (varint integers, length-prefixed
// strings). The frame is what makes replay safe: a torn tail — a record cut
// short by a crash mid-append — fails the length or checksum test and is
// truncated away, while any record that passes CRC decodes fully or the
// segment is declared corrupt.
package mailstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/largemail/largemail/internal/clock"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// Record is one journaled mailbox mutation attributed to its owner: the unit
// of the per-shard WAL.
type Record struct {
	User names.Name
	Op   mail.Op
}

// Framing errors. A torn record is the expected shape of a crash mid-append
// and is recoverable (truncate the tail); a corrupt record means bytes that
// were acknowledged as written no longer checksum, which is only tolerable
// at the very tail of the newest segment.
var (
	ErrTornRecord    = errors.New("mailstore: torn record (short frame)")
	ErrCorruptRecord = errors.New("mailstore: corrupt record")
	// ErrRecordTooLarge marks an append rejected because its encoded payload
	// exceeds maxPayload. ReadRecord treats such frames as corruption, so
	// writing one would poison the segment behind it; the writer latches this
	// error instead (see Store.Err).
	ErrRecordTooLarge = errors.New("mailstore: record exceeds max payload")
)

const (
	frameHeader = 8 // uint32 length + uint32 crc
	// maxPayload bounds a single record. A frame length beyond it is treated
	// as corruption rather than an allocation request: a flipped bit in the
	// length field must not ask for gigabytes.
	maxPayload = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// AppendRecord appends the framed encoding of rec to dst and returns the
// extended slice.
func AppendRecord(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	dst = appendPayload(dst, rec)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// ReadRecord decodes the first framed record in buf, returning the record
// and the number of bytes consumed. ErrTornRecord means buf ends before the
// frame does (crash mid-append); ErrCorruptRecord means the frame is
// complete but fails its checksum or does not decode.
func ReadRecord(buf []byte) (Record, int, error) {
	if len(buf) < frameHeader {
		return Record{}, 0, ErrTornRecord
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: frame length %d", ErrCorruptRecord, n)
	}
	if len(buf) < frameHeader+int(n) {
		return Record{}, 0, ErrTornRecord
	}
	payload := buf[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeader + int(n), nil
}

func appendPayload(dst []byte, rec Record) []byte {
	dst = append(dst, byte(rec.Op.Kind))
	dst = appendName(dst, rec.User)
	switch rec.Op.Kind {
	case mail.OpDeposit:
		m := rec.Op.Msg
		dst = appendUvarint(dst, uint64(m.ID.Node))
		dst = appendUvarint(dst, m.ID.Seq)
		dst = appendName(dst, m.From)
		dst = appendUvarint(dst, uint64(len(m.To)))
		for _, to := range m.To {
			dst = appendName(dst, to)
		}
		dst = appendString(dst, m.Subject)
		dst = appendString(dst, m.Body)
		dst = binary.AppendVarint(dst, int64(m.SubmittedAt))
		dst = appendUvarint(dst, uint64(m.Expansions))
		dst = appendUvarint(dst, uint64(len(m.Parts)))
		for _, p := range m.Parts {
			dst = appendString(dst, string(p.Type))
			dst = appendUvarint(dst, uint64(len(p.Data)))
			dst = append(dst, p.Data...)
		}
		dst = binary.AppendVarint(dst, int64(rec.Op.At))
		if rec.Op.Read {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case mail.OpDrain:
		// no fields
	case mail.OpMarkRead, mail.OpEvict, mail.OpSuppress:
		dst = appendUvarint(dst, uint64(len(rec.Op.IDs)))
		for _, id := range rec.Op.IDs {
			dst = appendUvarint(dst, uint64(id.Node))
			dst = appendUvarint(dst, id.Seq)
		}
	}
	return dst
}

func decodePayload(payload []byte) (Record, error) {
	d := decoder{buf: payload}
	var rec Record
	kind := mail.OpKind(d.byte())
	rec.Op.Kind = kind
	rec.User = d.name()
	switch kind {
	case mail.OpDeposit:
		m := &rec.Op.Msg
		m.ID.Node = names.NodeID(d.uvarint())
		m.ID.Seq = d.uvarint()
		m.From = d.name()
		nTo := d.count()
		for i := 0; i < nTo && d.err == nil; i++ {
			m.To = append(m.To, d.name())
		}
		m.Subject = d.string()
		m.Body = d.string()
		m.SubmittedAt = clock.Time(d.varint())
		m.Expansions = int(d.uvarint())
		nParts := d.count()
		for i := 0; i < nParts && d.err == nil; i++ {
			typ := d.string()
			data := d.bytes()
			m.Parts = append(m.Parts, mail.Part{Type: mail.ContentType(typ), Data: data})
		}
		rec.Op.At = clock.Time(d.varint())
		rec.Op.Read = d.byte() != 0
	case mail.OpDrain:
		// no fields
	case mail.OpMarkRead, mail.OpEvict, mail.OpSuppress:
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			node := names.NodeID(d.uvarint())
			seq := d.uvarint()
			rec.Op.IDs = append(rec.Op.IDs, mail.MessageID{Node: node, Seq: seq})
		}
	default:
		return Record{}, fmt.Errorf("%w: unknown op kind %d", ErrCorruptRecord, kind)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if len(d.buf) != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptRecord, len(d.buf))
	}
	return rec, nil
}

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendName(dst []byte, n names.Name) []byte {
	dst = appendString(dst, n.Region)
	dst = appendString(dst, n.Host)
	return appendString(dst, n.User)
}

// decoder is a cursor over a payload; the first malformed field sets err and
// every later read returns zero values, so decodePayload checks err once.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: bad %s", ErrCorruptRecord, what)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a collection length, bounded by the bytes that remain: each
// element costs at least one byte, so a count beyond len(buf) is corruption,
// not a huge allocation.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.buf)) {
		d.fail("count")
		return 0
	}
	return int(v)
}

func (d *decoder) bytes() []byte {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) string() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) name() names.Name {
	return names.Name{Region: d.string(), Host: d.string(), User: d.string()}
}
