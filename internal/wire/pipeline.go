package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// DefaultMaxInflight is the pipeline depth used when Pipeline is asked for
// zero or a negative depth.
const DefaultMaxInflight = 8

// errPipelineClosed rejects work submitted after Close.
var errPipelineClosed = errors.New("wire: pipeline closed")

// Pipeline keeps up to maxInflight requests in flight on the client's single
// connection: callers get a Future per request immediately and the pipeline
// overlaps the round trips, which is where the transport's throughput comes
// from — one in-flight request pays the full RTT per request, 32 pay it once
// per window.
//
// A pipeline speaks binary frames: requests are tagged and responses are
// matched by tag, so a server may legally complete them out of order. This
// package's own server executes one connection's requests in submission
// order (see the worker pool), so "pipelined" never weakens the
// per-connection ordering the exactly-once auditors check.
//
// A Pipeline owns the client's connection from Pipeline() until Close():
// the Client's own request methods must not be used in between. Do/Submit/
// SubmitBatch are safe for concurrent use. Once any request fails at the
// transport (a pipelined stream has no request boundaries to resynchronize
// on), every in-flight and future request fails with the same error, and
// Close drops the connection so the next Client use starts fresh.
//
// Do does not write to the socket. It encodes the request behind whatever is
// already waiting in the pipeline's output buffer and returns; one writer
// goroutine per pipeline swaps that buffer for an empty one and sends what
// accumulated in a single write, so a burst of requests costs one write(2),
// not one each, and a lone request goes out as soon as the writer wakes.
type Pipeline struct {
	c *Client

	sem    chan struct{} // one slot per in-flight request
	expect chan struct{} // one token per successfully written request

	mu      sync.Mutex
	wake    *sync.Cond         // the writer waits here for output, failure or Close
	out     []byte             // encoded requests not yet handed to the socket
	outN    int                // how many requests out holds
	pending map[uint32]*Future // tag → future
	werr    error              // sticky transport failure
	closed  bool

	writerDone chan struct{}
	readerDone chan struct{}
}

// Future is one pipelined request's pending result. It is a single
// allocation — the wait is an embedded WaitGroup, not a channel — and stays
// readable for good: Response may be called any number of times, from any
// goroutine, and returns the same result each time.
type Future struct {
	done sync.WaitGroup
	resp Response
	err  error
}

// Response blocks until the request completes and returns its result, with
// refused responses mapped to typed errors exactly like Client.Do.
func (f *Future) Response() (Response, error) {
	f.done.Wait()
	return f.resp, f.err
}

// Pipeline switches the client to binary framing (see Negotiate) and returns
// a pipeline with the given depth (≤ 0 → DefaultMaxInflight).
func (c *Client) Pipeline(ctx context.Context, maxInflight int) (*Pipeline, error) {
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	if err := c.Negotiate(ctx); err != nil {
		return nil, err
	}
	p := &Pipeline{
		c:          c,
		sem:        make(chan struct{}, maxInflight),
		expect:     make(chan struct{}, maxInflight),
		pending:    make(map[uint32]*Future),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	p.wake = sync.NewCond(&p.mu)
	go p.writer()
	go p.reader()
	return p, nil
}

// Do pipelines one request. It blocks only when maxInflight requests are
// already outstanding (the pipeline's backpressure), then returns a Future.
func (p *Pipeline) Do(req Request) *Future {
	f := new(Future)
	f.done.Add(1)
	p.sem <- struct{}{} // in-flight slot; released when the future completes
	p.mu.Lock()
	err := p.werr
	if err == nil && p.closed {
		err = errPipelineClosed
	}
	var tag uint32
	if err == nil {
		tag = p.c.nextTag()
		p.out, err = AppendBinaryRequest(p.out, req, tag)
	}
	if err != nil {
		p.mu.Unlock()
		p.finish(f, Response{}, err) // this request never touched the wire
		return f
	}
	// Registered under the same lock the bytes are queued under, so a fast
	// response can never beat the bookkeeping.
	p.pending[tag] = f
	p.outN++
	p.mu.Unlock()
	p.wake.Signal()
	return f
}

// writer sends what Do queued, one write per wake-up, and issues the reader
// one expect token per request written. It exits on the first transport
// failure (its own or the reader's) and, once Close was called, when nothing
// is left to send.
func (p *Pipeline) writer() {
	defer close(p.writerDone)
	var spare []byte
	for {
		p.mu.Lock()
		for p.outN == 0 && !p.closed && p.werr == nil {
			p.wake.Wait()
		}
		if p.outN == 0 || p.werr != nil {
			p.mu.Unlock()
			return
		}
		buf, n := p.out, p.outN
		p.out, p.outN = spare[:0], 0
		p.mu.Unlock()
		if t := p.c.opts.Timeout; t > 0 {
			_ = p.c.conn.SetWriteDeadline(time.Now().Add(t))
		}
		if _, err := p.c.conn.Write(buf); err != nil {
			// Mid-stream write failure: the connection's framing state is
			// gone, so everything in flight fails.
			p.failAll(err)
			return
		}
		for ; n > 0; n-- {
			p.expect <- struct{}{}
		}
		spare = buf
	}
}

// Submit pipelines one submit request.
func (p *Pipeline) Submit(from string, to []string, subject, body string) *Future {
	return p.Do(Request{Op: "submit", From: from, To: to, Subject: subject, Body: body})
}

// SubmitBatch pipelines one tbatch request.
func (p *Pipeline) SubmitBatch(from string, msgs []BatchMsg) *Future {
	return p.Do(Request{Op: "tbatch", From: from, Msgs: msgs})
}

// Close waits for every in-flight request to complete, joins the writer and
// the response reader, and returns the pipeline's sticky transport error, if
// any (in which case the underlying connection is dropped so the Client's
// next use reconnects). No Do may be issued concurrently with or after Close.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	p.wake.Signal()
	<-p.writerDone // everything queued has been written, or the pipeline failed
	if !already {
		close(p.expect)
	}
	<-p.readerDone
	p.mu.Lock()
	err := p.werr
	p.mu.Unlock()
	if err != nil {
		p.c.drop()
		return err
	}
	_ = p.c.conn.SetReadDeadline(time.Time{})
	return nil
}

// finish completes one future and releases its in-flight slot.
func (p *Pipeline) finish(f *Future, resp Response, err error) {
	f.resp, f.err = resp, err
	f.done.Done()
	<-p.sem
}

// failAll latches err and fails every registered in-flight future.
func (p *Pipeline) failAll(err error) {
	p.mu.Lock()
	if p.werr == nil {
		p.werr = err
	} else {
		err = p.werr
	}
	pend := p.pending
	p.pending = make(map[uint32]*Future)
	p.mu.Unlock()
	p.wake.Signal() // the writer has nothing left to wait for
	for _, f := range pend {
		p.finish(f, Response{}, err)
	}
}

// reader consumes one response per expect token, matching by tag. It exits
// when Close closes the token channel and every outstanding response has
// been read, or on the first transport error.
func (p *Pipeline) reader() {
	defer close(p.readerDone)
	rbuf := getFrameBuf()
	defer putFrameBuf(rbuf)
	for range p.expect {
		if t := p.c.opts.Timeout; t > 0 {
			_ = p.c.conn.SetReadDeadline(time.Now().Add(t))
		}
		var (
			resp Response
			tag  uint32
		)
		payload, err := p.c.cr.readFrame(rbuf)
		if err == nil {
			resp, tag, err = DecodeBinaryResponse(payload)
		}
		if err != nil {
			p.failAll(err)
			return
		}
		p.mu.Lock()
		f := p.pending[tag]
		delete(p.pending, tag)
		p.mu.Unlock()
		if f == nil {
			p.failAll(fmt.Errorf("wire: response with unmatched tag %d", tag))
			return
		}
		r, rerr := respErr(resp)
		p.finish(f, r, rerr)
	}
}
