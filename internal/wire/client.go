package wire

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/largemail/largemail/internal/mailerr"
)

// options tune a Client's fault behavior. Programs take the defaults
// through Dial; the package's tests set them through dialOptions.
type options struct {
	// timeout is the per-request deadline covering write and response read
	// (default 5s). A request against a hung or partitioned server fails
	// with a timeout error instead of blocking forever. Negative disables.
	timeout time.Duration
	// retries bounds how many extra attempts Do makes when a request
	// provably never reached the server — a failed dial or a failed write
	// (the server executes only CRC-complete frames, and a failed write never
	// delivers the tail of the frame). Responses that time out after a successful
	// write are NOT retried: the request may have executed, and submit is
	// not idempotent. Default 2; negative disables.
	retries int
	// retryBackoff is the pause before each retry (default 50ms).
	retryBackoff time.Duration
}

func (o options) withDefaults() options {
	if o.timeout == 0 {
		o.timeout = 5 * time.Second
	}
	if o.retries == 0 {
		o.retries = 2
	}
	if o.retries < 0 {
		o.retries = 0
	}
	if o.retryBackoff <= 0 {
		o.retryBackoff = 50 * time.Millisecond
	}
	return o
}

// Client is a wire-protocol client. It owns one TCP connection at a time
// and transparently reconnects after a broken one. Safe for sequential use;
// guard with your own mutex for concurrent callers, or use Pipeline for
// concurrent in-flight requests on one connection.
type Client struct {
	addr string
	opts options

	conn net.Conn
	cr   *connReader

	// tag numbers requests; responses echo it. Sequential Do checks
	// the echo; Pipeline uses it to match out-of-order completions.
	tag  uint32
	ids  idArena   // the message IDs doBinary decodes
	text textArena // and the text of their messages
}

// Dial connects to a wire server with the default deadline and retries.
func Dial(addr string) (*Client, error) {
	return dialOptions(addr, options{})
}

// dialOptions connects to a wire server with explicit deadline/retry
// behavior.
func dialOptions(addr string, opts options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) connect() error {
	d := net.Dialer{}
	if c.opts.timeout > 0 {
		d.Timeout = c.opts.timeout
	}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.cr = newConnReader(conn)
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
	return err
}

// BinaryFraming reports true: every connection speaks frames.
func (c *Client) BinaryFraming() bool { return true }

// Do sends one request and reads one response, under the configured
// deadline. See DoContext.
func (c *Client) Do(req Request) (Response, error) {
	return c.DoContext(context.Background(), req)
}

// DoContext sends one request and reads one response, honoring both the
// configured per-request deadline and the context: the connection deadline
// is the earlier of the two, and cancellation is checked before each attempt
// and during retry backoff (a context failure matches mailerr.ErrTimeout).
// Dial and write failures are retried up to options.retries times
// (reconnecting in between); a failure after the request was fully written
// is returned as-is, with the connection dropped so the next call starts
// fresh. A Response with ok=false is returned as an error — typed via
// mailerr.FromCode when the response carries a taxonomy code.
//
// The request travels as one tagged frame; the server executes only
// CRC-complete frames, so a short write provably never executed.
func (c *Client) DoContext(ctx context.Context, req Request) (Response, error) {
	var resp Response
	err := c.attempts(ctx, func() (retry bool, err error) {
		resp, err, retry = c.doBinary(req)
		return retry, err
	})
	if err != nil {
		return Response{}, err
	}
	return respErr(resp)
}

// attempts runs try on a ready connection — dialled and under the deadline —
// and again, up to options.retries more times, while try reports a failure
// that provably left nothing executed on the server.
func (c *Client) attempts(ctx context.Context, try func() (retry bool, err error)) error {
	var lastErr error
	for attempt := 0; attempt <= c.opts.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(c.opts.retryBackoff):
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
		c.opts.retries+1, lastErr)
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

// nextTag returns a fresh tag for one request.
func (c *Client) nextTag() uint32 {
	c.tag++
	return c.tag
}

// doBinary runs one request/response exchange: one frame out, one frame
// back. A frame past MaxLine is refused before it touches the wire. The third
// result reports whether a failure is provably-not-executed (safe to retry on
// a fresh connection).
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
	resp, rtag, derr := decodeResponse(payload, &c.ids, &c.text, nil)
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

// deadline is the earlier of the per-request options.timeout and the
// context's own deadline; the zero time (no deadline) when neither applies.
func (c *Client) deadline(ctx context.Context) time.Time {
	var d time.Time
	if c.opts.timeout > 0 {
		d = time.Now().Add(c.opts.timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
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

// GetMail runs the server-side GetMail walk for the user.
func (c *Client) GetMail(user string) ([]Message, error) {
	resp, err := c.Do(Request{Op: "getmail", User: user})
	return resp.Messages, err
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
