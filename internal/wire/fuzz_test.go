package wire

import (
	"bytes"
	"testing"
)

// jsonPayload wraps js as the JSON body of a binOpJSON payload under tag 1;
// a response payload (ok) also carries the ok byte.
func jsonPayload(js []byte, ok bool) []byte {
	p := []byte{binOpJSON, 1, 0, 0, 0}
	if ok {
		p = append(p, 1)
	}
	return append(p, js...)
}

// canonicalRequest re-encodes a decoded request as a frame and returns its
// payload; false when the value has no canonical frame (it re-encodes past
// MaxLine).
func canonicalRequest(t *testing.T, req Request) ([]byte, bool) {
	t.Helper()
	frame, err := AppendBinaryRequest(nil, req, 1)
	if err != nil {
		return nil, false
	}
	payload, _, err := splitFrame(frame)
	if err != nil {
		t.Fatalf("canonical frame rejected: %v", err)
	}
	return payload, true
}

// FuzzParseRequest feeds arbitrary bytes, as the JSON body of a binOpJSON
// frame, through the request decoder. Properties: no panic on any input, and
// decoding is canonically stable — once a payload decodes, re-encoding and
// re-decoding it reaches a fixed point (the first re-encode may normalize: a
// hot verb re-encodes in its own layout), so the request the server
// dispatches is exactly one a well-formed client would have sent.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		`{"op":"register","user":"R0.h0.alice","servers":["s1","s2"]}`,
		`{"op":"submit","from":"R0.h0.alice","to":["R1.h2.bob"],"subject":"hi","body":"see you"}`,
		`{"op":"checkmail","user":"R0.h0.alice","server":"s1"}`,
		`{"op":"getmail","user":"R0.h0.alice"}`,
		`{"op":"status"}`,
		`{"op":"crash","server":"s1"}`,
		`{"op":"recover","server":"s1"}`,
		`{"op":"submit","to":[]}`,
		`{"op":"submit","subject":"  line sep \ud800"}`,
		`{"op":`,
		`{}`,
		`null`,
		`[]`,
		`"op"`,
		"\x00\xff\xfe",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, js []byte) {
		req, _, err := DecodeBinaryRequest(jsonPayload(js, false))
		if err != nil {
			return // rejected input: the only requirement is not panicking
		}
		first, ok := canonicalRequest(t, req)
		if !ok {
			return
		}
		again, _, err := DecodeBinaryRequest(first)
		if err != nil {
			t.Fatalf("canonical payload rejected: %v\npayload: %q", err, first)
		}
		second, ok := canonicalRequest(t, again)
		if !ok {
			t.Fatalf("canonical payload grew past MaxLine: %q", first)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("decode/encode not a fixed point:\n%q\n%q", first, second)
		}
	})
}

// FuzzStatusSnapshot feeds arbitrary bytes, as the JSON body of an ok
// binOpJSON response, through the response decoder, whose deepest surface is
// the nested StatusSnapshot (counters, gauges, per-stage histogram
// quantiles). Same properties: no panic, and a canonical fixed point for
// everything that decodes.
func FuzzStatusSnapshot(f *testing.F) {
	for _, seed := range []string{
		`{"ok":true}`,
		`{"ok":false,"error":"unknown op \"x\""}`,
		`{"ok":true,"id":"1:17"}`,
		`{"ok":true,"messages":[{"id":"1:3","from":"R0.h0.alice","subject":"hi","body":"b"}]}`,
		`{"ok":true,"status":{"version":1,"servers":[{"name":"s1","up":true,"deposits":12}],` +
			`"counters":{"s1.deposits":12,"submit_spooled":0},"gauges":{"spool_depth":0},` +
			`"histograms":{"lat_e2e":{"count":3,"mean":1.5,"p50":1,"p95":2,"p99":2,"max":2}}}}`,
		`{"ok":true,"status":{"version":1}}`,
		`{"ok":true,"status":null}`,
		`{"ok":true,"status":{"histograms":{"lat_deposit":{"count":-1,"mean":1e308}}}}`,
		`{"ok"`,
		`0`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, js []byte) {
		resp, _, err := DecodeBinaryResponse(jsonPayload(js, true))
		if err != nil {
			return
		}
		first, err := AppendBinaryResponse(nil, binOpJSON, 1, resp)
		if err != nil {
			return // no canonical frame: it re-encodes past MaxLine
		}
		p, _, err := splitFrame(first)
		if err != nil {
			t.Fatalf("canonical frame rejected: %v", err)
		}
		again, _, err := DecodeBinaryResponse(p)
		if err != nil {
			t.Fatalf("canonical payload rejected: %v\npayload: %q", err, p)
		}
		second, err := AppendBinaryResponse(nil, binOpJSON, 1, again)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("decode/encode not a fixed point:\n%q\n%q", first, second)
		}
	})
}

// FuzzTBatch exercises the batch-codec surface: a tbatch request (nested
// Msgs) as the JSON body of a binOpJSON frame, re-encoded in its own layout.
// Properties: no panic on any input, canonical fixed point for everything
// that decodes, and the batch itself survives the change of encoding intact
// (item count and per-item recipients, JSON in, native out), so a
// decoded-then-forwarded batch is what the client sent.
func FuzzTBatch(f *testing.F) {
	for _, seed := range []string{
		`{"op":"hello","version":2}`,
		`{"op":"hello","version":1}`,
		`{"op":"hello","version":-3}`,
		`{"op":"tbatch","msgs":[{"to":[" "],"body":"\ud800"}]}`,
		`{"op":"tbatch","from":"R0.h0.alice","msgs":[{"to":["R1.h2.bob"]},{"to":["R1.h3.carol","R1.h2.bob"],"subject":"x"}]}`,
		`{"op":"tbatch","from":"R0.h0.alice","msgs":[]}`,
		`{"op":"tbatch","msgs":[{"to":null}]}`,
		`{"op":"tbatch","msgs":[{"to":[" "],"body":"\ud800"}]}`,
		`{"ok":true,"version":2}`,
		`{"ok":true,"ids":["1:1","","1:3"],"failed":[{"index":1,"error":"no recipients","code":"unknown_user"}]}`,
		`{"ok":false,"error":"tbatch requires protocol version 2","code":""}`,
		`{"op":"tbatch","msgs":`,
		`{"op":"tbatch","msgs":[{}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, js []byte) {
		req, _, err := DecodeBinaryRequest(jsonPayload(js, false))
		if err != nil {
			return
		}
		first, ok := canonicalRequest(t, req)
		if !ok {
			return
		}
		again, _, err := DecodeBinaryRequest(first)
		if err != nil {
			t.Fatalf("canonical payload rejected: %v\npayload: %q", err, first)
		}
		if len(again.Msgs) != len(req.Msgs) {
			t.Fatalf("batch length changed across round trip: %d → %d", len(req.Msgs), len(again.Msgs))
		}
		for i := range req.Msgs {
			if len(again.Msgs[i].To) != len(req.Msgs[i].To) {
				t.Fatalf("msg %d recipient count changed: %d → %d",
					i, len(req.Msgs[i].To), len(again.Msgs[i].To))
			}
		}
		second, ok := canonicalRequest(t, again)
		if !ok {
			t.Fatalf("canonical payload grew past MaxLine: %q", first)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("decode/encode not a fixed point:\n%q\n%q", first, second)
		}
	})
}
