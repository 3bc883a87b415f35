package mailstore

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

// fuzzSeedRecords are well-formed frames covering every op kind, so the
// fuzzer starts from valid structure rather than having to discover the
// CRC by accident.
func fuzzSeedRecords() [][]byte {
	alice := names.Name{Region: "R0", Host: "h0", User: "alice"}
	bob := names.Name{Region: "R1", Host: "h2", User: "bob"}
	m := mail.Message{
		ID: mail.MessageID{Node: 3, Seq: 17}, From: alice, To: []names.Name{bob},
		Subject: "hi", Body: "see you", SubmittedAt: 42, Expansions: 1,
	}
	m.AddPart(mail.ContentVoice, []byte{0x01, 0x02})
	recs := []Record{
		{User: bob, Op: mail.Op{Kind: mail.OpDeposit, Msg: m, At: 50, Read: true}},
		{User: bob, Op: mail.Op{Kind: mail.OpDrain}},
		{User: bob, Op: mail.Op{Kind: mail.OpMarkRead, IDs: []mail.MessageID{{Node: 3, Seq: 17}}}},
		{User: bob, Op: mail.Op{Kind: mail.OpEvict, IDs: []mail.MessageID{{Node: 3, Seq: 17}, {Node: 9, Seq: 1}}}},
		{User: bob, Op: mail.Op{Kind: mail.OpSuppress, IDs: []mail.MessageID{{Node: 1, Seq: 1}}}},
		{User: names.Name{}, Op: mail.Op{Kind: mail.OpDeposit}},
	}
	var out [][]byte
	for _, r := range recs {
		out = append(out, AppendRecord(nil, r))
	}
	// Two records back to back: ReadRecord must consume exactly the first.
	out = append(out, AppendRecord(AppendRecord(nil, recs[1]), recs[2]))
	return out
}

// FuzzWALRecord feeds arbitrary bytes through the WAL frame decoder.
// Properties: no panic on any input; every failure is a typed framing error
// (torn or corrupt, the two cases recovery distinguishes); and decoding is
// canonically stable — a decoded record re-encodes to a fixed point, so the
// state replayed from disk is exactly the state a clean writer would have
// logged. The double round trip matters because varints accept non-minimal
// encodings: the *input* need not equal the canonical form, but the
// canonical form must re-decode to itself.
func FuzzWALRecord(f *testing.F) {
	for _, seed := range fuzzSeedRecords() {
		f.Add(seed)
		// Torn and corrupt variants of a valid frame.
		if len(seed) > 10 {
			f.Add(seed[:len(seed)-3])
			flipped := append([]byte(nil), seed...)
			flipped[len(flipped)/2] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, buf []byte) {
		rec, n, err := ReadRecord(buf)
		if err != nil {
			if !errors.Is(err, ErrTornRecord) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n < frameHeader || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		first := AppendRecord(nil, rec)
		again, m, err := ReadRecord(first)
		if err != nil {
			t.Fatalf("canonical frame rejected: %v", err)
		}
		if m != len(first) {
			t.Fatalf("canonical frame consumed %d of %d bytes", m, len(first))
		}
		second := AppendRecord(nil, again)
		if !bytes.Equal(first, second) {
			t.Fatalf("encode/decode not a fixed point:\n%x\n%x", first, second)
		}
	})
}

// FuzzTermIndex decodes bytes into deposits and drains over a 4-shard store
// and holds the term index to refIndex after every op. Each op is two bytes,
// a kind and an argument: a deposit of one of refVariants (shared IDs, zero
// IDs, an ID reused with other content) into one of eight mailboxes, the same
// variant fanned out to all eight, a drain, a DrainFit taking up to two
// messages, or EnableTermIndex — the store starts unindexed, so its first
// enable indexes what is already buffered. A fully drained store keeps no
// posting and no table entry.
func FuzzTermIndex(f *testing.F) {
	variants := refVariants()
	users := make([]names.Name, 8)
	for i := range users {
		users[i] = termUser(i)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		st := New(4)
		var p *indexPair
		deposit := func(u names.Name, m mail.Message) {
			if p != nil {
				p.deposit(u, m)
			} else {
				st.Deposit(u, m, sim.Unit)
			}
		}
		take := func(u names.Name, n int) {
			for _, s := range st.DrainFit(u, func(b []mail.Stored) int { return n }) {
				if p != nil {
					p.ref.remove(u, s.Message)
				}
			}
		}
		for len(ops) >= 2 {
			kind, arg := ops[0]%5, int(ops[1])
			ops = ops[2:]
			u, v := users[arg%len(users)], variants[arg/len(users)%len(variants)]
			switch kind {
			case 0:
				deposit(u, v)
			case 1:
				for _, w := range users {
					deposit(w, v)
				}
			case 2:
				take(u, math.MaxInt)
			case 3:
				take(u, arg/len(users)%3)
			case 4:
				if p == nil {
					p = newIndexPair(t, st)
				}
			}
			if p != nil {
				p.check(refProbes)
			}
		}
		if p == nil {
			p = newIndexPair(t, st)
		}
		for _, u := range users {
			p.drain(u)
		}
		p.check(refProbes)
		requireIndexEmpty(t, st)
	})
}
