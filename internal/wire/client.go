package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/largemail/largemail/internal/mailerr"
)

// Options tune a Client's fault behavior.
type Options struct {
	// Timeout is the per-request deadline covering write and response read
	// (default 5s). A request against a hung or partitioned server fails
	// with a timeout error instead of blocking forever. Negative disables.
	Timeout time.Duration
	// Retries bounds how many extra attempts Do makes when a request
	// provably never reached the server — a failed dial or a failed write
	// (the protocol executes only complete newline-terminated lines or
	// CRC-complete frames, and a failed write never delivers the terminator
	// or the tail of the frame). Responses that time out after a successful
	// write are NOT retried: the request may have executed, and submit is
	// not idempotent. Default 2; negative disables.
	Retries int
	// RetryBackoff is the pause before each retry (default 50ms).
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	return o
}

// Client is a wire-protocol client. It owns one TCP connection at a time
// and transparently reconnects after a broken one. Safe for sequential use;
// guard with your own mutex for concurrent callers, or use Pipeline for
// concurrent in-flight requests on one connection.
type Client struct {
	addr string
	opts Options

	conn net.Conn
	cr   *connReader

	// frames is set once the client has switched to binary framing (Pipeline,
	// Negotiate) and stays set: a reconnect lands on text and re-runs the
	// handshake before its first request. Plain verbs never set it.
	frames bool
	// binOn marks the CURRENT connection as switched; it resets on reconnect.
	binOn bool
	// tag numbers binary requests; responses echo it. Sequential Do checks
	// the echo; Pipeline uses it to match out-of-order completions.
	tag uint32
}

// Dial connects to a wire server with default Options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a wire server with explicit deadline/retry
// behavior.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) connect() error {
	d := net.Dialer{}
	if c.opts.Timeout > 0 {
		d.Timeout = c.opts.Timeout
	}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.cr = newConnReader(conn)
	c.binOn = false
	return nil
}

// drop discards a broken connection; the next Do reconnects.
func (c *Client) drop() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	if c.cr != nil {
		c.cr.release()
		c.cr = nil
	}
	c.binOn = false
}

// Close closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	if c.cr != nil {
		c.cr.release()
		c.cr = nil
	}
	c.binOn = false
	return err
}

// BinaryFraming reports whether the current connection has switched to the
// binary framing.
func (c *Client) BinaryFraming() bool { return c.binOn }

// Negotiate switches the client to binary framing now (Pipeline does it on
// its own; plain verbs stay on text until one of the two has run).
func (c *Client) Negotiate(ctx context.Context) error {
	c.frames = true
	return c.attempts(ctx, func() (bool, error) { return false, nil })
}

// handshake switches the current connection, new and on text, to binary
// frames: one hello line out, one answer line back.
func (c *Client) handshake() error {
	hello, err := EncodeRequest(Request{Op: "hello", Binary: true})
	if err != nil {
		return err
	}
	if _, err := c.conn.Write(hello); err != nil {
		return err
	}
	resp, err := c.readResponse()
	if err != nil {
		return err
	}
	if !resp.OK || !resp.Binary {
		return errors.New("wire: server declined binary framing")
	}
	c.binOn = true
	return nil
}

// Do sends one request and reads one response, under the configured
// deadline. See DoContext.
func (c *Client) Do(req Request) (Response, error) {
	return c.DoContext(context.Background(), req)
}

// DoContext sends one request and reads one response, honoring both the
// configured per-request deadline and the context: the connection deadline
// is the earlier of the two, and cancellation is checked before each attempt
// and during retry backoff (a context failure matches mailerr.ErrTimeout).
// Dial and write failures are retried up to Options.Retries times
// (reconnecting in between); a failure after the request was fully written
// is returned as-is, with the connection dropped so the next call starts
// fresh. A Response with ok=false is returned as an error — typed via
// mailerr.FromCode when the response carries a taxonomy code.
//
// On a connection switched to binary framing the request travels as one
// tagged frame; retry semantics are identical because the server executes
// only CRC-complete frames, so a short write provably never executed.
func (c *Client) DoContext(ctx context.Context, req Request) (Response, error) {
	var (
		resp Response
		line []byte // the text form, encoded by the first attempt on text
	)
	err := c.attempts(ctx, func() (retry bool, err error) {
		if c.binOn {
			resp, err, retry = c.doBinary(req)
			return retry, err
		}
		if line == nil {
			// Refuse oversized requests before touching the wire: the
			// server-side reader would abort the whole connection on such a
			// line, and the client's own reader has the same MaxLine cap.
			// (doBinary applies the same cap to the frame it builds.)
			if line, err = EncodeRequest(req); err != nil {
				return false, err
			}
		}
		resp, err, retry = c.doText(line)
		return retry, err
	})
	if err != nil {
		return Response{}, err
	}
	return respErr(resp)
}

// attempts runs try on a ready connection — dialled, under the deadline, and
// switched to frames if the client has been — and again, up to
// Options.Retries more times, while try reports a failure that provably left
// nothing executed on the server.
func (c *Client) attempts(ctx context.Context, try func() (retry bool, err error)) error {
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(c.opts.RetryBackoff):
			}
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("wire: %w (%w)", mailerr.ErrTimeout, err)
		}
		if c.conn == nil {
			if err := c.connect(); err != nil {
				lastErr = err
				continue
			}
		}
		_ = c.conn.SetDeadline(c.deadline(ctx))
		if c.frames && !c.binOn {
			// The handshake is idempotent, so any failure is retryable.
			if err := c.handshake(); err != nil {
				c.drop()
				lastErr = err
				continue
			}
		}
		retry, err := try()
		if err == nil {
			_ = c.conn.SetDeadline(time.Time{})
			return nil
		}
		if !retry {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("wire: request failed after %d attempts: %w",
		c.opts.Retries+1, lastErr)
}

// respErr turns a refused response into a typed error.
func respErr(resp Response) (Response, error) {
	if !resp.OK {
		if resp.Code != "" {
			return resp, mailerr.FromCode(resp.Code, "wire: "+resp.Error)
		}
		return resp, fmt.Errorf("wire: %s", resp.Error)
	}
	return resp, nil
}

// nextTag returns a fresh tag for one binary request.
func (c *Client) nextTag() uint32 {
	c.tag++
	return c.tag
}

// doText runs one request/response exchange in text framing. The third
// result reports whether a failure is provably-not-executed (safe to retry
// on a fresh connection).
func (c *Client) doText(line []byte) (Response, error, bool) {
	if n, err := c.conn.Write(line); err != nil {
		c.drop()
		// The newline terminator is the line's last byte: unless it made it
		// out, the server will not execute this request.
		return Response{}, err, n < len(line)
	}
	resp, err := c.readResponse()
	if err != nil {
		// The request may have executed server-side; surface the error
		// rather than risking a duplicate submit.
		c.drop()
		return Response{}, err, false
	}
	return resp, nil, false
}

// doBinary runs one request/response exchange in binary framing. The third
// result reports whether a failure is provably-not-executed (safe to retry
// on a fresh connection).
func (c *Client) doBinary(req Request) (Response, error, bool) {
	tag := c.nextTag()
	bp := getFrameBuf()
	frame, err := AppendBinaryRequest((*bp)[:0], req, tag)
	if err != nil {
		putFrameBuf(bp)
		return Response{}, err, false
	}
	n, werr := c.conn.Write(frame)
	*bp = frame
	putFrameBuf(bp)
	if werr != nil {
		c.drop()
		// A short write never delivered the CRC trailer, so the server
		// cannot execute the request; a complete write may have.
		return Response{}, werr, n < len(frame)
	}
	rp := getFrameBuf()
	payload, rerr := c.cr.readFrame(rp)
	if rerr != nil {
		putFrameBuf(rp)
		c.drop()
		return Response{}, rerr, false
	}
	resp, rtag, derr := DecodeBinaryResponse(payload)
	putFrameBuf(rp)
	if derr != nil {
		c.drop()
		return Response{}, derr, false
	}
	if rtag != tag {
		c.drop()
		return Response{}, fmt.Errorf("wire: response tag %d for request tag %d", rtag, tag), false
	}
	return resp, nil, false
}

// deadline is the earlier of the per-request Options.Timeout and the
// context's own deadline; the zero time (no deadline) when neither applies.
func (c *Client) deadline(ctx context.Context) time.Time {
	var d time.Time
	if c.opts.Timeout > 0 {
		d = time.Now().Add(c.opts.Timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}

func (c *Client) readResponse() (Response, error) {
	line, err := c.cr.readLine()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Response{}, errors.New("wire: connection closed")
		}
		return Response{}, err
	}
	return DecodeResponse(line)
}

// Register records a user's authority list (empty = all servers).
func (c *Client) Register(user string, servers ...string) error {
	_, err := c.Do(Request{Op: "register", User: user, Servers: servers})
	return err
}

// Submit sends a message and returns its ID.
func (c *Client) Submit(from string, to []string, subject, body string) (string, error) {
	resp, err := c.Do(Request{Op: "submit", From: from, To: to, Subject: subject, Body: body})
	return resp.ID, err
}

// SubmitBatch submits a batch of messages sharing one sender as one tbatch
// request; items the server reports failed are retry-split into individual
// submits. The returned slice aligns with msgs ("" where an item ultimately
// failed); the error joins the per-item failures.
func (c *Client) SubmitBatch(from string, msgs []BatchMsg) ([]string, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	resp, err := c.Do(Request{Op: "tbatch", From: from, Msgs: msgs})
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(msgs))
	copy(ids, resp.IDs)
	var errs []error
	for _, f := range resp.Failed {
		if f.Index < 0 || f.Index >= len(msgs) {
			errs = append(errs, fmt.Errorf("server reported failure for out-of-range index %d: %s", f.Index, f.Error))
			continue
		}
		m := msgs[f.Index]
		if ids[f.Index], err = c.Submit(from, m.To, m.Subject, m.Body); err != nil {
			errs = append(errs, fmt.Errorf("msg %d: %w", f.Index, err))
		}
	}
	return ids, errors.Join(errs...)
}

// GetMail runs the server-side GetMail walk for the user.
func (c *Client) GetMail(user string) ([]Message, error) {
	resp, err := c.Do(Request{Op: "getmail", User: user})
	return resp.Messages, err
}

// QueryResult is a wire query's answer: the matching users plus the
// fan-out accounting (servers visited, pruned on sketch proof, unavailable).
type QueryResult struct {
	Matches []string
	Stats   QueryStats
}

// Query runs a content query ("content=budget", conjunctions with commas)
// across the cluster's mailbox stores.
func (c *Client) Query(query string) (QueryResult, error) {
	resp, err := c.Do(Request{Op: "query", Query: query})
	if err != nil {
		return QueryResult{}, err
	}
	out := QueryResult{Matches: resp.Matches}
	if resp.QueryStats != nil {
		out.Stats = *resp.QueryStats
	}
	return out, nil
}

// Status fetches the versioned observability snapshot: server rows (per-server
// availability and deposit counts), counters, gauges, and per-stage latency
// histograms.
func (c *Client) Status() (StatusSnapshot, error) {
	resp, err := c.Do(Request{Op: "status"})
	if err != nil || resp.Status == nil {
		return StatusSnapshot{}, err
	}
	return *resp.Status, nil
}

// SetAvailability crashes or recovers a named server.
func (c *Client) SetAvailability(server string, up bool) error {
	op := "recover"
	if !up {
		op = "crash"
	}
	_, err := c.Do(Request{Op: op, Server: server})
	return err
}
