// Binary framing.
//
// The text protocol spends most of its wire-path CPU inside encoding/json:
// every submit body is escape-scanned twice (client quote, server unquote),
// every response allocates an intermediate DOM, and the per-line scanner
// copies each request once more. A hello{"binary":true} switches the
// connection to a length-prefixed binary codec that mirrors the WAL's on-disk
// framing from the durability layer:
//
//	uint32-LE payload length | payload | uint32-LE CRC32-IEEE(payload)
//
// The payload is one request or response:
//
//	request:  op byte | tag uint32-LE | op-specific fields
//	response: op byte | tag uint32-LE | ok byte | op-specific fields
//
// Strings are uvarint length + raw bytes — no quoting, no escaping — so a
// submit body is sliced straight out of the read buffer; the only copy is
// the final []byte→string conversion at the ownership boundary. Frames are
// read into pooled buffers (sync.Pool) and payloads are bounded by MaxLine,
// the same cap the text protocol enforces.
//
// The hot verbs (submit, tbatch, getmail, checkmail) and register, sent once
// per user each time a deployment is provisioned, have native encodings.
// Everything else — hello, status, query, crash/recover — rides inside a
// binOpJSON frame carrying the familiar JSON object, so the binary protocol
// never forks the cold-path schema. A response echoes its request's op byte:
// a JSON-wrapped register, as older clients send it, is answered in JSON.
//
// The tag is client-assigned and echoed verbatim on the response, which is
// what allows pipelining: a client may keep MaxInflight tagged requests in
// flight and match responses as they return. The protocol permits tagged
// responses out of order; the current server completes one connection's
// frames in submission order (see the bounded worker pool), so ordering is
// a server liberty, not a client guarantee.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mailerr"
)

// Binary-frame op bytes. binOpJSON wraps the text protocol's JSON object for
// the cold verbs; the hot verbs and register get native encodings.
const (
	binOpJSON      byte = 0
	binOpSubmit    byte = 1
	binOpTBatch    byte = 2
	binOpGetMail   byte = 3
	binOpCheckMail byte = 4
	binOpRegister  byte = 5
)

const (
	binHdrLen = 4 // uint32-LE payload length
	binCRCLen = 4 // uint32-LE CRC32-IEEE trailer
)

var wireCRC = crc32.MakeTable(crc32.IEEE)

// Binary-framing errors. ErrFrameTooLarge matches mailerr via ErrLineTooLong's
// taxonomy twin; ErrFrameCorrupt means the CRC trailer did not match — the
// stream cannot be resynchronized and the connection must close.
var (
	ErrFrameTooLarge  = fmt.Errorf("wire: frame exceeds %d bytes: %w", MaxLine, mailerr.ErrOversized)
	ErrFrameCorrupt   = errors.New("wire: frame CRC mismatch")
	errFrameTruncated = errors.New("wire: truncated frame")
	errBadPayload     = errors.New("wire: malformed binary payload")
)

// appendFrame seals payload into dst as one wire frame:
// length header, payload, CRC trailer.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxLine {
		return dst, ErrFrameTooLarge
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, wireCRC)), nil
}

// sealAt completes a frame built in place on dst: dst[start:] must begin
// with binHdrLen reserved bytes followed by the payload. It fills the length
// header, appends the CRC trailer, and returns the grown dst (or dst[:start]
// with an error when the payload is oversized).
func sealAt(dst []byte, start int) ([]byte, error) {
	payload := dst[start+binHdrLen:]
	if len(payload) > MaxLine {
		return dst[:start], ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	crc := crc32.Checksum(payload, wireCRC)
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// splitFrame parses one complete frame from the front of b, returning the
// payload (aliasing b) and the bytes consumed. Used by the fuzz targets; the
// streaming reader (connReader.readFrame) implements the same format
// incrementally.
func splitFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < binHdrLen {
		return nil, 0, errFrameTruncated
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen > MaxLine {
		return nil, 0, ErrFrameTooLarge
	}
	total := binHdrLen + plen + binCRCLen
	if len(b) < total {
		return nil, 0, errFrameTruncated
	}
	payload = b[binHdrLen : binHdrLen+plen]
	if crc32.Checksum(payload, wireCRC) != binary.LittleEndian.Uint32(b[binHdrLen+plen:]) {
		return nil, 0, ErrFrameCorrupt
	}
	return payload, total, nil
}

// ---------------------------------------------------------------------------
// payload primitives

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrs(dst []byte, list []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(list)))
	for _, s := range list {
		dst = appendStr(dst, s)
	}
	return dst
}

// binReader walks a frame payload with a latched error, returning zero
// values after the first malformed field.
//
// s is the whole payload as one string, made by the first non-empty str();
// str() slices into it, so decoding a frame costs one string allocation
// total instead of one per field, and none for a frame without strings (an
// empty getmail response). The substrings share that backing array and keep
// the whole payload reachable — the right trade for message frames, where
// bodies (which the mailbox retains anyway) dominate the payload, and the
// wrong one for any small field that outlives them: what is kept past the
// request is re-homed where it becomes long-lived (rehomeIDs on the client;
// the directory's own copy of a recipient's name in livenet).
type binReader struct {
	b   []byte
	s   string
	off int
	bad bool
}

func (r *binReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// bytes returns the next length-prefixed field as a zero-copy slice of the
// payload.
func (r *binReader) bytes() []byte {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return nil
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

func (r *binReader) str() string {
	b := r.bytes()
	if len(b) == 0 {
		return ""
	}
	if r.s == "" {
		r.s = string(r.b)
	}
	return r.s[r.off-len(b) : r.off]
}

// strs reads a counted list of strings: nil when it is empty.
func (r *binReader) strs() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		out = append(out, r.str())
	}
	return out
}

// count reads a list length, rejecting counts that could not possibly fit in
// the remaining payload (each element costs at least one byte) so corrupt
// frames cannot force huge allocations.
func (r *binReader) count() int {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *binReader) byte1() byte {
	if r.bad || r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *binReader) u32() uint32 {
	if r.bad || len(r.b)-r.off < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64() uint64 {
	if r.bad || len(r.b)-r.off < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// ---------------------------------------------------------------------------
// request codec

// binaryOpFor maps a request op string to its frame op byte; ops without a
// native encoding ship as binOpJSON.
func binaryOpFor(op string) byte {
	switch op {
	case "submit":
		return binOpSubmit
	case "tbatch":
		return binOpTBatch
	case "getmail":
		return binOpGetMail
	case "checkmail":
		return binOpCheckMail
	case "register":
		return binOpRegister
	default:
		return binOpJSON
	}
}

// AppendBinaryRequest appends one framed request to dst. The hot verbs
// use their native encodings; everything else wraps the JSON form.
func AppendBinaryRequest(dst []byte, req Request, tag uint32) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length header, filled by sealAt
	op := binaryOpFor(req.Op)
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint32(dst, tag)
	switch op {
	case binOpSubmit:
		dst = appendStr(dst, req.From)
		dst = appendStr(dst, req.Subject)
		dst = appendStr(dst, req.Body)
		dst = appendStrs(dst, req.To)
	case binOpTBatch:
		dst = appendStr(dst, req.From)
		dst = binary.AppendUvarint(dst, uint64(len(req.Msgs)))
		for _, m := range req.Msgs {
			dst = appendStr(dst, m.Subject)
			dst = appendStr(dst, m.Body)
			dst = appendStrs(dst, m.To)
		}
	case binOpGetMail:
		dst = appendStr(dst, req.User)
	case binOpCheckMail:
		dst = appendStr(dst, req.User)
		dst = appendStr(dst, req.Server)
	case binOpRegister:
		dst = appendStr(dst, req.User)
		dst = appendStrs(dst, req.Servers)
	default: // binOpJSON
		js, err := json.Marshal(req)
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, js...)
	}
	return sealAt(dst, start)
}

// DecodeBinaryRequest parses one request payload (the bytes between the
// length header and the CRC trailer). String fields are sliced directly out
// of the payload — the single copy is the []byte→string conversion; there is
// no quoting pass and no intermediate document.
func DecodeBinaryRequest(payload []byte) (Request, uint32, error) {
	r := binReader{b: payload}
	op := r.byte1()
	tag := r.u32()
	var req Request
	switch op {
	case binOpSubmit:
		req.Op = "submit"
		req.From = r.str()
		req.Subject = r.str()
		req.Body = r.str()
		req.To = r.strs()
	case binOpTBatch:
		req.Op = "tbatch"
		req.From = r.str()
		n := r.count()
		if n > 0 {
			req.Msgs = make([]BatchMsg, 0, n)
		}
		for i := 0; i < n && !r.bad; i++ {
			var m BatchMsg
			m.Subject = r.str()
			m.Body = r.str()
			m.To = r.strs()
			req.Msgs = append(req.Msgs, m)
		}
	case binOpGetMail:
		req.Op = "getmail"
		req.User = r.str()
	case binOpCheckMail:
		req.Op = "checkmail"
		req.User = r.str()
		req.Server = r.str()
	case binOpRegister:
		req.Op = "register"
		req.User = r.str()
		req.Servers = r.strs()
	case binOpJSON:
		if r.bad {
			break
		}
		req, err := decodeJSON(payload[r.off:], req)
		return req, tag, err
	default:
		return Request{}, tag, fmt.Errorf("%w: unknown op byte %d", errBadPayload, op)
	}
	if r.bad {
		return Request{}, tag, errBadPayload
	}
	return req, tag, nil
}

// decodeJSON is the binOpJSON arm of both decoders: it fills v, the value
// decoded so far, from the JSON object. json.Unmarshal needs an address, and
// a variable whose address is taken lives on the heap for every call of its
// function; here that is this function's copy, not the decoders' req/resp.
func decodeJSON[T any](js []byte, v T) (T, error) {
	if err := json.Unmarshal(js, &v); err != nil {
		var zero T
		return zero, fmt.Errorf("%w: %v", errBadPayload, err)
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// response codec

// AppendBinaryResponse appends one framed response to dst. op is the
// request's frame op byte (echoed so the response is self-describing), tag
// the request's tag.
func AppendBinaryResponse(dst []byte, op byte, tag uint32, resp Response) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint32(dst, tag)
	if !resp.OK {
		dst = append(dst, 0)
		dst = appendStr(dst, resp.Code)
		dst = appendStr(dst, resp.Error)
		return sealAt(dst, start)
	}
	dst = append(dst, 1)
	switch op {
	case binOpSubmit:
		if resp.id.IsZero() {
			dst = appendStr(dst, resp.ID)
		} else {
			dst = appendID(dst, resp.id)
		}
	case binOpTBatch:
		dst = binary.AppendUvarint(dst, uint64(len(resp.IDs)))
		for _, id := range resp.IDs {
			dst = appendStr(dst, id)
		}
		dst = binary.AppendUvarint(dst, uint64(len(resp.Failed)))
		for _, f := range resp.Failed {
			dst = binary.AppendUvarint(dst, uint64(f.Index))
			dst = appendStr(dst, f.Code)
			dst = appendStr(dst, f.Error)
		}
	case binOpGetMail, binOpCheckMail:
		if resp.stored != nil {
			dst = appendStored(dst, resp.stored)
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(resp.Messages)))
			for _, m := range resp.Messages {
				dst = appendStr(dst, m.ID)
				dst = appendStr(dst, m.From)
				dst = appendStr(dst, m.Subject)
				dst = appendStr(dst, m.Body)
			}
		}
		if op == binOpGetMail {
			dst = binary.AppendUvarint(dst, uint64(resp.Polls))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(resp.LastChecking))
		}
	case binOpRegister: // the ok byte is the whole answer
	default: // binOpJSON
		js, err := json.Marshal(resp)
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, js...)
	}
	return sealAt(dst, start)
}

// appendStored appends a retrieved batch as the message list of a getmail or
// checkmail response, byte for byte what the []Message form of the same
// batch encodes to, without building that form: IDs and sender names are
// formatted straight into the frame. msgs is only read.
func appendStored(dst []byte, msgs []mail.Stored) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		dst = appendID(dst, m.ID)
		dst = binary.AppendUvarint(dst, uint64(m.From.TextLen()))
		dst = m.From.AppendTo(dst)
		dst = appendStr(dst, m.Subject)
		dst = appendStr(dst, m.Body)
	}
	return dst
}

// appendID appends id as appendStr(dst, id.String()) would, without building
// the string. "m<int64>-<uint64>" is at most 42 bytes, so its uvarint length
// is the one byte reserved here.
func appendID(dst []byte, id mail.MessageID) []byte {
	at := len(dst)
	dst = id.AppendTo(append(dst, 0))
	dst[at] = byte(len(dst) - at - 1)
	return dst
}

// DecodeBinaryResponse parses one response payload.
func DecodeBinaryResponse(payload []byte) (Response, uint32, error) {
	r := binReader{b: payload}
	op := r.byte1()
	tag := r.u32()
	ok := r.byte1()
	var resp Response
	if r.bad {
		return Response{}, tag, errBadPayload
	}
	if ok == 0 {
		resp.Code = r.str()
		resp.Error = r.str()
		if r.bad {
			return Response{}, tag, errBadPayload
		}
		return resp, tag, nil
	}
	resp.OK = true
	switch op {
	case binOpSubmit:
		resp.ID = r.str()
	case binOpTBatch:
		n := r.count()
		if n > 0 {
			resp.IDs = make([]string, 0, n)
			for i := 0; i < n && !r.bad; i++ {
				resp.IDs = append(resp.IDs, r.str())
			}
		}
		nf := r.count()
		for i := 0; i < nf && !r.bad; i++ {
			var f BatchFailure
			f.Index = int(r.uvarint())
			f.Code = r.str()
			f.Error = r.str()
			resp.Failed = append(resp.Failed, f)
		}
	case binOpGetMail, binOpCheckMail:
		n := r.count()
		if n > 0 {
			resp.Messages = make([]Message, 0, n)
		}
		for i := 0; i < n && !r.bad; i++ {
			var m Message
			m.ID = r.str()
			m.From = r.str()
			m.Subject = r.str()
			m.Body = r.str()
			resp.Messages = append(resp.Messages, m)
		}
		rehomeIDs(resp.Messages)
		if op == binOpGetMail {
			resp.Polls = int(r.uvarint())
			resp.LastChecking = int64(r.u64())
		}
	case binOpRegister:
	case binOpJSON:
		resp, err := decodeJSON(payload[r.off:], resp)
		return resp, tag, err
	default:
		return Response{}, tag, fmt.Errorf("%w: unknown op byte %d", errBadPayload, op)
	}
	if r.bad {
		return Response{}, tag, errBadPayload
	}
	return resp, tag, nil
}

// rehomeIDs gives the IDs of a response that carries two or more messages one
// string of their own. The ID is the field a caller keeps — a deduplicating
// client remembers it long after it has dropped the body — and as a piece of
// the payload string it would keep every neighbour's body reachable with it.
// A single message's ID pins only what it arrived with, so it stays where it
// is, and an empty or one-message response decodes without this allocation.
func rehomeIDs(msgs []Message) {
	if len(msgs) < 2 {
		return
	}
	n := 0
	for i := range msgs {
		n += len(msgs[i].ID)
	}
	var own strings.Builder
	own.Grow(n)
	for i := range msgs {
		own.WriteString(msgs[i].ID)
	}
	ids := own.String()
	for i := range msgs {
		n = len(msgs[i].ID)
		msgs[i].ID, ids = ids[:n], ids[n:]
	}
}

// ---------------------------------------------------------------------------
// pooled connection reader

// frameBufPool recycles frame build/read buffers so steady-state binary
// traffic allocates nothing per request.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

// putFrameBuf recycles a buffer, unless a large frame grew it past the read
// window: pooling that one would leave every connection that ever saw a
// MaxLine frame holding a megabyte.
func putFrameBuf(p *[]byte) {
	if cap(*p) > connReaderBufSize {
		return
	}
	*p = (*p)[:0]
	frameBufPool.Put(p)
}

// connReaderBufSize is the bufio window shared by the text and binary read
// paths. Lines and frames larger than this still work (they spill into the
// pooled scratch / frame buffer); they just cost an extra copy.
const connReaderBufSize = 64 << 10

// connReader is a pooled buffered reader speaking both wire framings: text
// lines until a hello switches to binary, length-prefixed frames after. Both
// the server's per-connection serve loop and the client use it, replacing
// the per-connection bufio.Scanner whose max-line buffer used to be fresh
// garbage on every accepted connection.
type connReader struct {
	br   *bufio.Reader
	line []byte          // scratch for lines spanning the bufio window
	hdr  [binHdrLen]byte // readFrame's length header; a local would escape through io.ReadFull
}

var connReaderPool = sync.Pool{New: func() any {
	return &connReader{br: bufio.NewReaderSize(nil, connReaderBufSize)}
}}

func newConnReader(r io.Reader) *connReader {
	cr := connReaderPool.Get().(*connReader)
	cr.br.Reset(r)
	return cr
}

// release returns the reader (and its buffers) to the pool. The connReader
// must not be used afterwards.
func (cr *connReader) release() {
	cr.br.Reset(nil)
	cr.line = cr.line[:0]
	connReaderPool.Put(cr)
}

// readLine returns the next newline-terminated line without its terminator,
// enforcing MaxLine. The returned slice aliases the reader's buffers and is
// valid only until the next read.
func (cr *connReader) readLine() ([]byte, error) {
	cr.line = cr.line[:0]
	for {
		frag, err := cr.br.ReadSlice('\n')
		switch {
		case err == nil:
			if len(cr.line) == 0 {
				return trimEOL(frag), nil
			}
			cr.line = append(cr.line, frag...)
			if len(cr.line) > MaxLine {
				return nil, ErrLineTooLong
			}
			return trimEOL(cr.line), nil
		case errors.Is(err, bufio.ErrBufferFull):
			cr.line = append(cr.line, frag...)
			if len(cr.line) > MaxLine {
				return nil, ErrLineTooLong
			}
		default:
			return nil, err
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// readFrame reads one binary frame into *bufp (growing it if needed) and
// returns the verified payload, which aliases *bufp. Any error is fatal to
// the stream: a binary connection cannot resynchronize past a bad frame.
func (cr *connReader) readFrame(bufp *[]byte) ([]byte, error) {
	if _, err := io.ReadFull(cr.br, cr.hdr[:]); err != nil {
		return nil, err
	}
	plen := int(binary.LittleEndian.Uint32(cr.hdr[:]))
	if plen > MaxLine {
		return nil, ErrFrameTooLarge
	}
	total := plen + binCRCLen
	buf := *bufp
	if cap(buf) < total {
		buf = make([]byte, total)
		*bufp = buf
	}
	buf = buf[:total]
	if _, err := io.ReadFull(cr.br, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	payload := buf[:plen]
	if crc32.Checksum(payload, wireCRC) != binary.LittleEndian.Uint32(buf[plen:]) {
		return nil, ErrFrameCorrupt
	}
	return payload, nil
}
