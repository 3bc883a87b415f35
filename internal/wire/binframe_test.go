package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/placement"
)

func mustFrameRequest(t *testing.T, req Request, tag uint32) []byte {
	t.Helper()
	b, err := AppendBinaryRequest(nil, req, tag)
	if err != nil {
		t.Fatalf("AppendBinaryRequest: %v", err)
	}
	return b
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: "submit", From: "R1.h1.alice", To: []string{"R1.h1.bob", "R2.h9.carol"},
			Subject: "hi", Body: "body with \"quotes\", newlines\n, and \x00 bytes"},
		{Op: "submit", From: "R1.h1.alice", To: []string{"R1.h1.bob"}},
		{Op: "tbatch", From: "R1.h1.alice", Msgs: []BatchMsg{
			{To: []string{"R1.h1.bob"}, Subject: "a", Body: "b"},
			{To: []string{"R1.h1.bob", "R1.h1.carol"}},
			{To: nil, Subject: "", Body: strings.Repeat("z", 4096)},
		}},
		{Op: "getmail", User: "R1.h1.bob"},
		{Op: "checkmail", User: "R1.h1.bob", Server: "s2"},
		{Op: "register", User: "R1.h1.alice", Servers: []string{"s1", "s2"}},
		{Op: "register", User: "R1.h1.alice"},
		// Cold verbs ride the JSON op.
		{Op: "hello", Binary: true},
		{Op: "status"},
		{Op: "crash", Server: "s1"},
	}
	for i, req := range cases {
		frame := mustFrameRequest(t, req, uint32(i*7+1))
		payload, n, err := splitFrame(frame)
		if err != nil {
			t.Fatalf("case %d: splitFrame: %v", i, err)
		}
		if n != len(frame) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(frame))
		}
		got, tag, err := DecodeBinaryRequest(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if tag != uint32(i*7+1) {
			t.Fatalf("case %d: tag = %d, want %d", i, tag, i*7+1)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("case %d: round trip changed request:\n got %+v\nwant %+v", i, got, req)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op   byte
		resp Response
	}{
		{binOpSubmit, Response{OK: true, ID: "3:17"}},
		{binOpSubmit, Response{Error: "submit: unknown user", Code: "unknown_user"}},
		{binOpTBatch, Response{OK: true, IDs: []string{"1:1", "", "1:3"},
			Failed: []BatchFailure{{Index: 1, Error: "no recipients", Code: "unknown_user"}}}},
		{binOpGetMail, Response{OK: true, Messages: []Message{
			{ID: "1:1", From: "R1.h1.alice", Subject: "s", Body: "b"},
			{ID: "1:2", From: "R1.h1.alice"},
		}, Polls: 42, LastChecking: 1700000000000000000}},
		{binOpGetMail, Response{OK: true, Polls: 1, LastChecking: -1}},
		{binOpCheckMail, Response{OK: true, Messages: []Message{{ID: "9:9", From: "R2.h2.z"}}}},
		{binOpRegister, Response{OK: true}},
		{binOpRegister, Response{Error: `unknown server "s9"`}},
		{binOpJSON, Response{OK: true, Binary: true}},
		{binOpJSON, Response{Error: "unknown op \"nope\""}},
	}
	for i, tc := range cases {
		frame, err := AppendBinaryResponse(nil, tc.op, uint32(i+100), tc.resp)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		payload, _, err := splitFrame(frame)
		if err != nil {
			t.Fatalf("case %d: splitFrame: %v", i, err)
		}
		got, tag, err := DecodeBinaryResponse(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if tag != uint32(i+100) {
			t.Fatalf("case %d: tag = %d, want %d", i, tag, i+100)
		}
		if !reflect.DeepEqual(got, tc.resp) {
			t.Fatalf("case %d: round trip changed response:\n got %+v\nwant %+v", i, got, tc.resp)
		}
	}
}

// TestBinaryFrameCorruption flips every byte of a valid frame past the
// length prefix (payload and CRC trailer — the region the checksum covers)
// and requires the frame to be rejected. Length-prefix corruption is
// legitimately undetectable by CRC; it either truncates or oversizes, which
// the reader bounds separately.
func TestBinaryFrameCorruption(t *testing.T) {
	frame := mustFrameRequest(t, Request{
		Op: "submit", From: "R1.h1.alice", To: []string{"R1.h1.bob"},
		Subject: "subj", Body: "corruption target",
	}, 7)
	for off := binHdrLen; off < len(frame); off++ {
		mut := append([]byte(nil), frame...)
		mut[off] ^= 0x41
		if _, _, err := splitFrame(mut); err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
	}
}

func TestBinaryFrameTooLarge(t *testing.T) {
	big := Request{Op: "submit", From: "R1.h1.a", To: []string{"R1.h1.b"},
		Body: strings.Repeat("x", MaxLine)}
	if _, err := AppendBinaryRequest(nil, big, 1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("encode err = %v, want ErrFrameTooLarge", err)
	}
	// A header claiming an oversized payload is refused before any read.
	hdr := binary.LittleEndian.AppendUint32(nil, MaxLine+1)
	if _, _, err := splitFrame(append(hdr, 0)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("splitFrame err = %v, want ErrFrameTooLarge", err)
	}
	cr := newConnReader(bytes.NewReader(append(hdr, make([]byte, 64)...)))
	defer cr.release()
	bufp := getFrameBuf()
	defer putFrameBuf(bufp)
	if _, err := cr.readFrame(bufp); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readFrame err = %v, want ErrFrameTooLarge", err)
	}
}

// TestConnReaderFrames pins the streaming reader against multiple frames
// back to back, a truncated tail, and a CRC mismatch.
func TestConnReaderFrames(t *testing.T) {
	var stream []byte
	want := []Request{
		{Op: "getmail", User: "R1.h1.a"},
		{Op: "submit", From: "R1.h1.a", To: []string{"R1.h1.b"}, Body: strings.Repeat("q", 100_000)},
		{Op: "status"},
	}
	for i, req := range want {
		frame := mustFrameRequest(t, req, uint32(i))
		stream = append(stream, frame...)
	}
	cr := newConnReader(bytes.NewReader(stream))
	defer cr.release()
	bufp := getFrameBuf()
	defer putFrameBuf(bufp)
	for i, req := range want {
		payload, err := cr.readFrame(bufp)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, tag, err := DecodeBinaryRequest(payload)
		if err != nil || tag != uint32(i) {
			t.Fatalf("frame %d: decode err=%v tag=%d", i, err, tag)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("frame %d changed in flight", i)
		}
	}
	if _, err := cr.readFrame(bufp); !errors.Is(err, io.EOF) {
		t.Fatalf("past end: err = %v, want EOF", err)
	}

	// Truncated mid-payload: ErrUnexpectedEOF, not a hang or a zero frame.
	full := mustFrameRequest(t, want[1], 9)
	cr2 := newConnReader(bytes.NewReader(full[:len(full)-3]))
	defer cr2.release()
	if _, err := cr2.readFrame(bufp); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated: err = %v, want ErrUnexpectedEOF", err)
	}

	// Flipped payload byte: ErrFrameCorrupt from the streaming path too.
	bad := append([]byte(nil), full...)
	bad[binHdrLen+2] ^= 0xFF
	cr3 := newConnReader(bytes.NewReader(bad))
	defer cr3.release()
	if _, err := cr3.readFrame(bufp); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupt: err = %v, want ErrFrameCorrupt", err)
	}
}

// TestConnReaderLongLines pins the pooled text reader: lines longer than the
// bufio window still arrive whole, and MaxLine is enforced.
func TestConnReaderLongLines(t *testing.T) {
	long := strings.Repeat("a", connReaderBufSize*2)
	src := "short\r\n" + long + "\n"
	cr := newConnReader(strings.NewReader(src))
	defer cr.release()
	line, err := cr.readLine()
	if err != nil || string(line) != "short" {
		t.Fatalf("line 1 = %q, %v", line, err)
	}
	line, err = cr.readLine()
	if err != nil || string(line) != long {
		t.Fatalf("line 2 len = %d, err %v, want %d", len(line), err, len(long))
	}
	over := strings.Repeat("b", MaxLine+2) + "\n"
	cr2 := newConnReader(strings.NewReader(over))
	defer cr2.release()
	if _, err := cr2.readLine(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("oversized line err = %v, want ErrLineTooLong", err)
	}
}

// FuzzBinaryFrame feeds arbitrary bytes through the v3 frame splitter and
// both payload decoders. Properties: no panic on any input; anything that
// splits and decodes as a request re-encodes to a frame that decodes back to
// the identical request (fixed point, so a decoded-then-forwarded frame is
// semantically what the client sent); and single-byte corruption anywhere in
// the CRC-covered region of the re-encoded frame is always detected.
func FuzzBinaryFrame(f *testing.F) {
	seedReqs := []struct {
		req Request
		tag uint32
	}{
		{Request{Op: "submit", From: "R1.h1.alice", To: []string{"R1.h1.bob"}, Subject: "s", Body: "b"}, 1},
		{Request{Op: "tbatch", From: "R1.h1.alice", Msgs: []BatchMsg{{To: []string{"R1.h1.bob"}, Body: "x"}}}, 2},
		{Request{Op: "getmail", User: "R1.h1.bob"}, 3},
		{Request{Op: "checkmail", User: "R1.h1.bob", Server: "s1"}, 4},
		{Request{Op: "hello", Binary: true}, 5},
		{Request{Op: "status"}, 6},
		// register: one server listed twice, a malformed name, an unknown
		// server, no server (the placement policy's), an empty name token.
		{Request{Op: "register", User: "R1.h1.bob", Servers: []string{"s1", "s1"}}, 7},
		{Request{Op: "register", User: "R1@h1@bob", Servers: []string{"s1"}}, 8},
		{Request{Op: "register", User: "R1.h1.bob", Servers: []string{"s1", "s9"}}, 9},
		{Request{Op: "register", User: "R1.h1.bob"}, 10},
		{Request{Op: "register", User: "R1..bob", Servers: []string{"s1"}}, 11},
	}
	for _, s := range seedReqs {
		frame, err := AppendBinaryRequest(nil, s.req, s.tag)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	respFrame, err := AppendBinaryResponse(nil, binOpGetMail, 9, Response{
		OK: true, Messages: []Message{{ID: "1:1", From: "R1.h1.a", Subject: "s", Body: "b"}},
		Polls: 3, LastChecking: 12345,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(respFrame)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3, 0, 0, 0, 0})
	// The reader's own decoder runs against a server that knows one of the
	// seeds' users (and no connection: nothing is queued).
	s, err := NewServer("127.0.0.1:0", []string{"s1"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	s.cluster.Directory().SetAuthority(names.MustParse("R1.h1.bob"), []string{"s1"})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, _, err := splitFrame(data)
		if err != nil {
			return // rejected input: the only requirement is not panicking
		}
		// Both decoders must be panic-free on any checksummed payload, and
		// agree with the reference decoders on it.
		sameDecode(t, payload)
		req, tag, err := DecodeBinaryRequest(payload)
		// So must the decoder the server's reader runs, which agrees with
		// DecodeBinaryRequest on everything but how a getmail names its user:
		// by the agent it was bound to, when the name is a registered user's.
		bound, btag, berr := s.decodeFrame(payload)
		if (berr == nil) != (err == nil) || btag != tag || (err != nil && berr.Error() != err.Error()) {
			t.Fatalf("reader decodes (%v, tag %d), DecodeBinaryRequest (%v, tag %d)", berr, btag, err, tag)
		}
		if err != nil {
			return
		}
		if bound.agent != nil {
			user, perr := names.Parse(req.User)
			if perr != nil || bound.agent.a.User() != user || req.Op != "getmail" || bound.User != "" {
				t.Fatalf("%+v bound to %v's agent (its user parses: %v)", req, bound.agent.a.User(), perr)
			}
			bound.agent, bound.User = nil, req.User
		}
		if !reflect.DeepEqual(bound, req) {
			t.Fatalf("reader decodes %+v, DecodeBinaryRequest %+v", bound, req)
		}
		// Canonical fixed point at the frame level: one re-encode may
		// normalize (a JSON-op frame whose op names a hot verb re-encodes
		// natively, dropping fields that verb does not carry), but from
		// there on encode∘decode must be the identity.
		frame, err := AppendBinaryRequest(nil, req, tag)
		if err != nil {
			return // decoded value has no canonical frame (re-encodes oversized)
		}
		p2, n, err := splitFrame(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("canonical frame rejected: err=%v n=%d len=%d", err, n, len(frame))
		}
		req2, tag2, err := DecodeBinaryRequest(p2)
		if err != nil {
			t.Fatalf("canonical frame undecodable: %v", err)
		}
		if tag2 != tag {
			t.Fatalf("tag changed across round trip: %d → %d", tag, tag2)
		}
		second, err := AppendBinaryRequest(nil, req2, tag2)
		if err != nil {
			t.Fatalf("re-encode of canonical value failed: %v", err)
		}
		if !bytes.Equal(frame, second) {
			t.Fatalf("decode/encode not a fixed point:\n%x\n%x", frame, second)
		}
		// CRC coverage: flip one byte past the length prefix and the frame
		// must be rejected. The flip offset is derived from the input so the
		// fuzzer sweeps the whole frame over time.
		if len(frame) > binHdrLen {
			off := binHdrLen + len(data)%(len(frame)-binHdrLen)
			mut := append([]byte(nil), frame...)
			mut[off] ^= 0x01
			if _, _, err := splitFrame(mut); err == nil {
				t.Fatalf("single-byte corruption at offset %d undetected", off)
			}
		}
	})
}

// refBinReader and the two ref decoders are the decoders as they were before
// the by-value rewrite (heap-allocated reader, eager payload string, JSON
// arms inline), kept as the reference the live ones are compared against.
type refBinReader struct{ binReader }

func (r *refBinReader) str() string {
	b := r.bytes()
	if len(b) == 0 {
		return ""
	}
	return r.s[r.off-len(b) : r.off]
}

func refDecodeBinaryRequest(payload []byte) (Request, uint32, error) {
	r := &refBinReader{binReader{b: payload, s: string(payload)}}
	op := r.byte1()
	tag := r.u32()
	var req Request
	switch op {
	case binOpSubmit:
		req.Op = "submit"
		req.From = r.str()
		req.Subject = r.str()
		req.Body = r.str()
		n := r.count()
		if n > 0 {
			req.To = make([]string, 0, n)
			for i := 0; i < n && !r.bad; i++ {
				req.To = append(req.To, r.str())
			}
		}
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
			nt := r.count()
			if nt > 0 {
				m.To = make([]string, 0, nt)
				for j := 0; j < nt && !r.bad; j++ {
					m.To = append(m.To, r.str())
				}
			}
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
		n := r.count()
		for i := 0; i < n && !r.bad; i++ {
			req.Servers = append(req.Servers, r.str())
		}
	case binOpJSON:
		if r.bad {
			break
		}
		if err := json.Unmarshal(payload[r.off:], &req); err != nil {
			return Request{}, tag, fmt.Errorf("%w: %v", errBadPayload, err)
		}
		r.off = len(payload)
	default:
		return Request{}, tag, fmt.Errorf("%w: unknown op byte %d", errBadPayload, op)
	}
	if r.bad {
		return Request{}, tag, errBadPayload
	}
	return req, tag, nil
}

func refDecodeBinaryResponse(payload []byte) (Response, uint32, error) {
	r := &refBinReader{binReader{b: payload, s: string(payload)}}
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
		if op == binOpGetMail {
			resp.Polls = int(r.uvarint())
			resp.LastChecking = int64(r.u64())
		}
	case binOpRegister:
	case binOpJSON:
		if err := json.Unmarshal(payload[r.off:], &resp); err != nil {
			return Response{}, tag, fmt.Errorf("%w: %v", errBadPayload, err)
		}
		r.off = len(payload)
	default:
		return Response{}, tag, fmt.Errorf("%w: unknown op byte %d", errBadPayload, op)
	}
	if r.bad {
		return Response{}, tag, errBadPayload
	}
	return resp, tag, nil
}

// sameDecode fails the test unless both decoders agree with their references
// on payload: same value, same tag, and the same error text or none.
func sameDecode(t *testing.T, payload []byte) {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	req, tag, err := DecodeBinaryRequest(payload)
	wreq, wtag, werr := refDecodeBinaryRequest(payload)
	if !reflect.DeepEqual(req, wreq) || tag != wtag || errText(err) != errText(werr) {
		t.Fatalf("request decode of %x:\n got %+v tag %d err %v\nwant %+v tag %d err %v", payload, req, tag, err, wreq, wtag, werr)
	}
	resp, tag, err := DecodeBinaryResponse(payload)
	wresp, wtag, werr := refDecodeBinaryResponse(payload)
	if !reflect.DeepEqual(resp, wresp) || tag != wtag || errText(err) != errText(werr) {
		t.Fatalf("response decode of %x:\n got %+v tag %d err %v\nwant %+v tag %d err %v", payload, resp, tag, err, wresp, wtag, werr)
	}
}

// TestBinaryDecodersMatchReference is the seeded property test: well-formed
// payloads of every op (the JSON-wrapped ones included), every prefix of
// each, and random single-byte damage decode exactly as the reference
// decoders decode them.
func TestBinaryDecodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	word := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	list := func() []string {
		out := make([]string, rng.Intn(4))
		for i := range out {
			out[i] = word()
		}
		return out
	}
	for round := 0; round < 300; round++ {
		reqs := []Request{
			{Op: "submit", From: word(), To: list(), Subject: word(), Body: word()},
			{Op: "tbatch", From: word(), Msgs: []BatchMsg{{To: list(), Subject: word(), Body: word()}, {To: list()}}},
			{Op: "getmail", User: word()},
			{Op: "checkmail", User: word(), Server: word()},
			{Op: "register", User: word(), Servers: list()},
			{Op: "hello", Binary: rng.Intn(2) == 0},
			{Op: "query", Query: word()},
		}
		var frames [][]byte
		for _, req := range reqs {
			frames = append(frames, mustFrameRequest(t, req, rng.Uint32()))
		}
		resps := []struct {
			op   byte
			resp Response
		}{
			{binOpSubmit, Response{OK: true, ID: word()}},
			{binOpSubmit, Response{Error: word(), Code: word()}},
			{binOpTBatch, Response{OK: true, IDs: list(), Failed: []BatchFailure{{Index: rng.Intn(9), Error: word(), Code: word()}}}},
			{binOpGetMail, Response{OK: true, Messages: []Message{{ID: word(), From: word(), Subject: word(), Body: word()}}, Polls: rng.Intn(99), LastChecking: rng.Int63()}},
			{binOpGetMail, Response{OK: true, Polls: rng.Intn(99)}},
			{binOpCheckMail, Response{OK: true, Messages: []Message{{ID: word()}, {Body: word()}}}},
			{binOpJSON, Response{OK: true, Binary: true, Matches: list()}},
			{binOpRegister, Response{OK: true}},
		}
		for _, c := range resps {
			frame, err := AppendBinaryResponse(nil, c.op, rng.Uint32(), c.resp)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
		}
		for _, frame := range frames {
			payload, _, err := splitFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			sameDecode(t, payload)
			sameDecode(t, payload[:rng.Intn(len(payload)+1)]) // truncated
			mut := append([]byte(nil), payload...)
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			sameDecode(t, mut) // damaged: op byte, a length, a count, JSON text
		}
	}
}

// TestBinaryGoldenFrames pins the bytes on the wire: one request and one
// response of each op, recorded from the encoders before the read-path
// rewrite. The getmail and checkmail responses must come out the same from
// the []Message form and from the []mail.Stored form the server encodes.
func TestBinaryGoldenFrames(t *testing.T) {
	reqs := []struct {
		req  Request
		want string
	}{
		{Request{Op: "submit", From: "R1.h1.alice", To: []string{"R1.h1.bob", "R2.h9.carol"}, Subject: "hi", Body: "body \"q\"\n\x00"},
			"3600000001000302010b52312e68312e616c6963650268690a626f6479202271220a00020952312e68312e626f620b52322e68392e6361726f6ca0cc04c8"},
		{Request{Op: "tbatch", From: "R1.h1.alice", Msgs: []BatchMsg{{To: []string{"R1.h1.bob"}, Subject: "a", Body: "b"}, {To: []string{"R1.h1.bob", "R1.h1.carol"}}}},
			"3a00000002010302010b52312e68312e616c6963650201610162010952312e68312e626f620000020952312e68312e626f620b52312e68312e6361726f6ca6abc24f"},
		{Request{Op: "getmail", User: "R1.h1.bob"}, "0f00000003020302010952312e68312e626f62e47f6af3"},
		{Request{Op: "checkmail", User: "R1.h1.bob", Server: "s2"}, "1200000004030302010952312e68312e626f620273321e22a3fd"},
		{Request{Op: "register", User: "R1.h1.alice", Servers: []string{"s1", "s2"}},
			"1800000005040302010b52312e68312e616c69636502027331027332285faa69"},
	}
	for i, c := range reqs {
		if got := hex.EncodeToString(mustFrameRequest(t, c.req, uint32(0x01020300+i))); got != c.want {
			t.Errorf("%s request frame:\n got %s\nwant %s", c.req.Op, got, c.want)
		}
	}
	alice, z := names.MustParse("R1.h1.alice"), names.MustParse("R2.h2.z")
	resps := []struct {
		op   byte
		resp Response
		want string
	}{
		{binOpSubmit, Response{OK: true, ID: "m1-17"}, "0c00000001000c0b0a01056d312d3137aa292378"},
		{binOpTBatch, Response{OK: true, IDs: []string{"m1-1", "", "m1-3"}, Failed: []BatchFailure{{Index: 1, Error: "no recipients", Code: "unknown_user"}}},
			"2f00000002010c0b0a0103046d312d3100046d312d3301010c756e6b6e6f776e5f757365720d6e6f20726563697069656e7473be35b298"},
		{binOpGetMail, Response{OK: true, Messages: []Message{{ID: "m1-1", From: "R1.h1.alice", Subject: "s", Body: "b"}, {ID: "m-3-18446744073709551615", From: "R2.h2.z"}}, Polls: 42, LastChecking: 1700000000000000000},
			"4800000003020c0b0a0102046d312d310b52312e68312e616c69636501730162186d2d332d31383434363734343037333730393535313631350752322e68322e7a00002a00002a36fe9c97178c35da4c"},
		{binOpGetMail, Response{OK: true, stored: []mail.Stored{
			{Message: mail.Message{ID: mail.MessageID{Node: 1, Seq: 1}, From: alice, Subject: "s", Body: "b"}},
			{Message: mail.Message{ID: mail.MessageID{Node: -3, Seq: math.MaxUint64}, From: z}},
		}, Polls: 42, LastChecking: 1700000000000000000},
			"4800000003020c0b0a0102046d312d310b52312e68312e616c69636501730162186d2d332d31383434363734343037333730393535313631350752322e68322e7a00002a00002a36fe9c97178c35da4c"},
		{binOpCheckMail, Response{OK: true, Messages: []Message{{ID: "m9-9", From: "R2.h2.z", Body: "x"}}}, "1700000004030c0b0a0101046d392d390752322e68322e7a0001784659f3fd"},
		{binOpCheckMail, Response{OK: true, stored: []mail.Stored{{Message: mail.Message{ID: mail.MessageID{Node: 9, Seq: 9}, From: z, Body: "x"}}}},
			"1700000004030c0b0a0101046d392d390752322e68322e7a0001784659f3fd"},
		{binOpJSON, Response{OK: true, Binary: true}, "1f00000000040c0b0a017b226f6b223a747275652c2262696e617279223a747275657d6cda2f27"},
		{binOpGetMail, Response{Error: "getmail: no such user", Code: "unknown_user"}, "2900000003050c0b0a000c756e6b6e6f776e5f75736572156765746d61696c3a206e6f207375636820757365722f103bcc"},
		{binOpRegister, Response{OK: true}, "0600000005060c0b0a01f54d24a5"},
	}
	tags := []uint32{0, 1, 2, 2, 3, 3, 4, 5, 6} // the stored twins reuse their Messages form's tag
	for i, c := range resps {
		frame, err := AppendBinaryResponse(nil, c.op, 0x0a0b0c00+tags[i], c.resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(frame); got != c.want {
			t.Errorf("response %d (op %d) frame:\n got %s\nwant %s", i, c.op, got, c.want)
		}
	}

	// The register frame clients sent before register had a layout of its
	// own (the row above, until then) is still accepted, and answered in JSON
	// under its own op byte.
	old, err := hex.DecodeString("4100000000040302017b226f70223a227265676973746572222c2275736572223a2252312e68312e616c696365222c2273657276657273223a5b227331222c227332225d7d5438ac09")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t)
	conn, cr := rawBinary(t, s.Addr())
	if _, err := conn.Write(old); err != nil {
		t.Fatal(err)
	}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	payload, err := cr.readFrame(bp)
	if err != nil {
		t.Fatal(err)
	}
	answer, _ := appendFrame(nil, payload)
	if got, want := hex.EncodeToString(answer), "110000000004030201017b226f6b223a747275657d7868ad67"; got != want {
		t.Errorf("JSON-wrapped register answered:\n got %s\nwant %s", got, want)
	}
	if got := s.cluster.Directory().Authority(alice); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Errorf("JSON-wrapped register left alice on %q", got)
	}
}

// TestBinaryRegisterMatchesJSON is the seeded property test of the native
// register frame: each register goes to one server in it and to a twin as the
// JSON-wrapped frame older clients send, and the two must answer alike —
// error text and code included — and leave the same directory behind. The
// inputs cover valid registers (one to three known servers, duplicates) and
// each way one is refused (malformed and over-long names, unknown servers),
// and no servers at all, with the placement policy off and on.
func TestBinaryRegisterMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	long := func(c string) string { return strings.Repeat(c, 150+rng.Intn(300)) }
	user := func() string {
		switch rng.Intn(8) {
		case 0:
			return []string{"", "bogus", "R1..x", "R1.h1.a b", "R1@h1.x", "R1.h1.é", ".R1.h1", "R1.h1.x."}[rng.Intn(8)]
		case 1:
			return "R1.h1." + long("u") // valid, its length a two-byte uvarint
		case 2:
			return "R1.h1." + long("u") + " "
		case 3:
			return fmt.Sprintf("R%d@h%d@u%d", rng.Intn(2), rng.Intn(3), rng.Intn(20))
		default:
			return fmt.Sprintf("R%d.h%d.u%d", rng.Intn(2), rng.Intn(3), rng.Intn(20))
		}
	}
	pool := []string{"s1", "s2", "s3", "s1", "s2", "s3", "s9", "", " s1", "S1", "s" + strings.Repeat("1", 200)}
	servers := func() []string {
		var out []string
		for i := rng.Intn(4); i > 0; i-- {
			out = append(out, pool[rng.Intn(len(pool))])
		}
		return out
	}
	for _, placed := range []bool{false, true} {
		var cfg ServerConfig
		if placed {
			cfg.Cluster.Placement = placement.NewRoundRobin(placement.World{Regions: 1, ServersPerRegion: 3, HostsPerRegion: 4, AuthorityLen: 2})
			cfg.Cluster.PlacementName = func(slot int) string { return "s" + strconv.Itoa(slot+1) }
		}
		var twins [2]*Server
		var conns [2]net.Conn
		var readers [2]*connReader
		for i := range twins {
			s, err := NewServerWith("127.0.0.1:0", []string{"s1", "s2", "s3"}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			twins[i] = s
			conns[i], readers[i] = rawBinary(t, s.Addr())
		}
		ok := 0
		var seen []string
		for i := 0; i < 600; i++ {
			req := Request{Op: "register", User: user(), Servers: servers()}
			tag := rng.Uint32()
			native := mustFrameRequest(t, req, tag)
			js, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := appendFrame(nil, append(binary.LittleEndian.AppendUint32([]byte{binOpJSON}, tag), js...))
			if err != nil {
				t.Fatal(err)
			}
			var got [2]Response
			for k, frame := range [][]byte{native, wrapped} {
				if _, err := conns[k].Write(frame); err != nil {
					t.Fatal(err)
				}
				var rtag uint32
				if got[k], rtag = readBinary(t, readers[k]); rtag != tag {
					t.Fatalf("register %+v: answered under tag %d, sent %d", req, rtag, tag)
				}
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("placement %v, register %q on %q: native %+v, JSON-wrapped %+v", placed, req.User, req.Servers, got[0], got[1])
			}
			if got[0].OK {
				ok++
			}
			seen = append(seen, req.User)
		}
		if ok < 100 || len(seen)-ok < 100 {
			t.Fatalf("%d registers accepted, %d refused: the inputs miss a side", ok, len(seen)-ok)
		}
		for _, u := range seen {
			if n, err := names.Parse(u); err == nil {
				a, b := twins[0].cluster.Directory().Authority(n), twins[1].cluster.Directory().Authority(n)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("placement %v: %s is on %q natively, on %q JSON-wrapped", placed, u, a, b)
				}
			}
		}
	}
}

// TestHandOverEncodingMatchesMessages: for seeded batches, the frame encoded
// straight from []mail.Stored is the frame its []Message conversion encodes
// to, and encoding leaves the batch as it found it.
func TestHandOverEncodingMatchesMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		batch := make([]mail.Stored, 1+rng.Intn(5))
		for i := range batch {
			batch[i].ID = mail.MessageID{Node: graph.NodeID(rng.Intn(7) - 3), Seq: rng.Uint64() >> uint(rng.Intn(64))}
			batch[i].From = names.Name{Region: "R" + strconv.Itoa(rng.Intn(99)), Host: "h" + strconv.Itoa(rng.Intn(999)), User: strings.Repeat("u", 1+rng.Intn(40))}
			batch[i].Subject = strings.Repeat("s", rng.Intn(200))
			batch[i].Body = strings.Repeat("b", rng.Intn(3000))
		}
		before := append([]mail.Stored(nil), batch...)
		for _, op := range []byte{binOpGetMail, binOpCheckMail} {
			direct, err := AppendBinaryResponse(nil, op, 5, Response{OK: true, stored: batch, Polls: 3, LastChecking: 9})
			if err != nil {
				t.Fatal(err)
			}
			viaMessages, err := AppendBinaryResponse(nil, op, 5, Response{OK: true, Messages: wireMessages(batch), Polls: 3, LastChecking: 9})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(direct, viaMessages) {
				t.Fatalf("round %d op %d: frames differ:\n%x\n%x", round, op, direct, viaMessages)
			}
		}
		if !reflect.DeepEqual(batch, before) {
			t.Fatalf("round %d: encoding wrote to the batch", round)
		}
	}
}

// TestFrameBufPoolDropsLargeBuffers: a MaxLine-sized frame grows the reader's
// buffer; returning that buffer must not leave a megabyte in the pool for
// the next taker.
func TestFrameBufPoolDropsLargeBuffers(t *testing.T) {
	frame := mustFrameRequest(t, Request{Op: "submit", From: "R1.h1.a", To: []string{"R1.h1.b"}, Body: strings.Repeat("x", MaxLine-64)}, 1)
	for round := 0; round < 8; round++ {
		cr := newConnReader(bytes.NewReader(frame))
		bp := getFrameBuf()
		if _, err := cr.readFrame(bp); err != nil {
			t.Fatal(err)
		}
		if cap(*bp) < MaxLine-64 {
			t.Fatalf("reader buffer did not grow: cap %d", cap(*bp))
		}
		putFrameBuf(bp)
		cr.release()
	}
	for i := 0; i < 64; i++ {
		bp := getFrameBuf()
		if cap(*bp) > connReaderBufSize {
			t.Fatalf("pool handed out a %d-byte buffer after a large frame", cap(*bp))
		}
		defer putFrameBuf(bp) // keep them out of the pool so each Get is a different buffer
	}
}
