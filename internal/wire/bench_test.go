package wire

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail/mailstore"
)

// benchBurst pumps b.N messages through a pipelined client: the wire path's
// msgs/sec microbenchmark (bodies 512B, as bench/'s wire_ingest uses). Over a
// durable cluster it also reports the WAL fsyncs each message cost.
func benchBurst(b *testing.B, batch, inflight int, cfg ServerConfig) {
	s, err := NewServerWith("127.0.0.1:0", []string{"s1"}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	wal0, durable := s.cluster.DurabilityStats()
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("R1.h1.from"); err != nil {
		b.Fatal(err)
	}
	// Spread deposits over several sinks: one mailbox absorbing the whole
	// burst measures slice-growth pathology, not the wire path.
	const sinks = 16
	tos := make([][]string, sinks)
	for i := range tos {
		u := fmt.Sprintf("R1.h1.sink%d", i)
		if err := c.Register(u); err != nil {
			b.Fatal(err)
		}
		tos[i] = []string{u}
	}
	p, err := c.Pipeline(context.Background(), inflight)
	if err != nil {
		b.Fatal(err)
	}
	body := strings.Repeat("m", 512)
	b.ReportAllocs()
	b.ResetTimer()
	futs := make([]*Future, 0, b.N/batch+1)
	pending := make([]int, sinks) // deposits per sink since its last drain
	for sent := 0; sent < b.N; {
		si := (sent / batch) % sinks
		to := tos[si]
		if batch == 1 {
			futs = append(futs, p.Submit("R1.h1.from", to, "b", body))
			sent++
		} else {
			msgs := make([]BatchMsg, batch)
			for i := range msgs {
				msgs[i] = BatchMsg{To: to, Subject: "b", Body: body}
			}
			futs = append(futs, p.Do(Request{Op: "tbatch", From: "R1.h1.from", Msgs: msgs}))
			sent += batch
		}
		// Recipients read their mail: drain each sink every 64 deposits so
		// mailboxes stay bounded, as in any live system.
		if pending[si] += batch; pending[si] >= 64 {
			pending[si] = 0
			futs = append(futs, p.Do(Request{Op: "getmail", User: to[0]}))
		}
	}
	for _, f := range futs {
		if _, err := f.Response(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	if wal, _ := s.cluster.DurabilityStats(); durable {
		b.ReportMetric(float64(wal.Syncs-wal0.Syncs)/float64(b.N), "fsyncs/msg")
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBurstBinaryB1(b *testing.B)  { benchBurst(b, 1, 32, ServerConfig{}) }
func BenchmarkBurstBinaryB16(b *testing.B) { benchBurst(b, 16, 32, ServerConfig{}) }

// BenchmarkTBatchFsync is the price of durability at wire_ingest's shape:
// 16-message frames at pipeline depth 8 into a durable server whose WAL
// fsyncs never or always. Each recipient's getmail (one every 64 messages)
// is a write, and under always an fsync, of its own.
func BenchmarkTBatchFsync(b *testing.B) {
	for _, mode := range []mailstore.FsyncMode{mailstore.FsyncNever, mailstore.FsyncAlways} {
		b.Run(mode.String(), func(b *testing.B) {
			benchBurst(b, 16, 8, ServerConfig{Cluster: livenet.ClusterConfig{DataDir: b.TempDir(), Fsync: mode, StoreShards: 4}})
		})
	}
}

// writeCounter counts the Write calls on one side of a connection: each is a
// write(2) on a socket, the cost the per-batch flush exists to share.
type writeCounter struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countedServer starts a server plus a second listener in front of it whose
// accepted connections are served by the same Server.handle loop, wrapped so
// that every server-side write is counted. It returns the address to dial
// and the counter.
func countedServer(tb testing.TB, cfg ServerConfig) (*Server, string, *atomic.Int64) {
	tb.Helper()
	s, err := NewServerWith("127.0.0.1:0", []string{"s1", "s2"}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		tb.Fatal(err)
	}
	writes := new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			cc := writeCounter{Conn: conn, writes: writes}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				_ = conn.Close()
				return
			}
			s.conns[cc] = struct{}{}
			s.wg.Add(1)
			s.mu.Unlock()
			go s.handle(cc)
		}
	}()
	tb.Cleanup(func() {
		_ = ln.Close()
		s.Close()
	})
	return s, ln.Addr().String(), writes
}

// benchSingleFrames pumps b.N single-frame operations through one pipelined
// binary connection at the given depth and reports, next to allocs/op (client
// and server together: they share the process), the socket writes each side
// spent per operation.
func benchSingleFrames(b *testing.B, depth int, next func(i int) Request) {
	_, addr, srvWrites := countedServer(b, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, u := range []string{"R1.h1.from", "R1.h1.to"} {
		if err := c.Register(u); err != nil {
			b.Fatal(err)
		}
	}
	cliWrites := new(atomic.Int64)
	c.conn = writeCounter{Conn: c.conn, writes: cliWrites}
	p, err := c.Pipeline(context.Background(), depth)
	if err != nil {
		b.Fatal(err)
	}
	window := make([]*Future, depth)
	wait := func(f *Future) {
		if f == nil {
			return
		}
		if _, err := f.Response(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*depth; i++ { // warm the pools and the agent
		wait(window[i%depth])
		window[i%depth] = p.Do(next(i))
	}
	for _, f := range window {
		wait(f)
	}
	clear(window)
	srv0, cli0 := srvWrites.Load(), cliWrites.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wait(window[i%depth])
		window[i%depth] = p.Do(next(i))
	}
	for _, f := range window {
		wait(f)
	}
	b.StopTimer()
	b.ReportMetric(float64(srvWrites.Load()-srv0)/float64(b.N), "srv-writes/op")
	b.ReportMetric(float64(cliWrites.Load()-cli0)/float64(b.N), "cli-writes/op")
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
}

func emptyGetMail(int) Request { return Request{Op: "getmail", User: "R1.h1.from"} }

func BenchmarkGetMailEmptyDepth1(b *testing.B)  { benchSingleFrames(b, 1, emptyGetMail) }
func BenchmarkGetMailEmptyDepth64(b *testing.B) { benchSingleFrames(b, 64, emptyGetMail) }

// BenchmarkSubmitSingleFrame is one 512 B submit per frame at depth 64, the
// recipient drained every 64 submits so the mailbox stays bounded.
func BenchmarkSubmitSingleFrame(b *testing.B) {
	body := strings.Repeat("m", 512)
	to := []string{"R1.h1.to"}
	benchSingleFrames(b, 64, func(i int) Request {
		if i%64 == 63 {
			return Request{Op: "getmail", User: "R1.h1.to"}
		}
		return Request{Op: "submit", From: "R1.h1.from", To: to, Subject: "b", Body: body}
	})
}
