package loadgen

import (
	"context"
	"fmt"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/wire"
)

// WireConfig parameterizes a WireDriver.
type WireConfig struct {
	Pop Population
	// Proto selects the client framing: "text" (JSON lines, what a connection
	// speaks until a hello switches it) or "binary" (length-prefixed frames).
	// Default "binary".
	Proto string
	// Tick is the wall-clock duration of one schedule tick (default 2ms).
	Tick time.Duration
	// Addr is the TCP listen address (default loopback, ephemeral port).
	Addr string
}

// WireDriver drives the full TCP wire path: a wire.Server fronting a livenet
// cluster, and a wire.Client issuing every submit and retrieval as protocol
// requests. Placement (server names, authority lists, predicted loads) is
// identical to LiveDriver's round-robin scheme — the wire leg is the only
// difference, which is what makes text-vs-binary sweeps comparable.
type WireDriver struct {
	cfg   WireConfig
	pop   Population
	srv   *wire.Server
	c     *wire.Client
	inner *LiveDriver // placement + cluster-side hooks over srv.Cluster()

	registered map[int]bool
	prevPolls  map[int]int
}

// NewWireDriver starts the server, dials the client, and switches it to the
// requested framing. Call Close when done.
func NewWireDriver(cfg WireConfig) (*WireDriver, error) {
	cfg.Pop = cfg.Pop.withDefaults()
	if cfg.Tick <= 0 {
		cfg.Tick = 2 * time.Millisecond
	}
	if cfg.Proto == "" {
		cfg.Proto = "binary"
	}
	if cfg.Proto != "text" && cfg.Proto != "binary" {
		return nil, fmt.Errorf("wiredriver: unknown proto %q", cfg.Proto)
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	names := make([]string, cfg.Pop.TotalServers())
	for gs := range names {
		names[gs] = serverLabel(gs)
	}
	srv, err := wire.NewServer(cfg.Addr, names)
	if err != nil {
		return nil, err
	}
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	if cfg.Proto == "binary" {
		// Plain verbs never leave text on their own; switch now so the
		// driver speaks frames from the first submit on.
		if err := c.Negotiate(context.Background()); err != nil {
			_ = c.Close()
			srv.Close()
			return nil, err
		}
	}
	srv.Cluster().Tracer().KeepAll() // as NewLiveDriver: the audit reads every trace
	d := &WireDriver{
		cfg: cfg,
		pop: cfg.Pop,
		srv: srv,
		c:   c,
		inner: &LiveDriver{
			cfg:     LiveConfig{Pop: cfg.Pop, Tick: cfg.Tick},
			pop:     cfg.Pop,
			cluster: srv.Cluster(),
		},
		registered: make(map[int]bool),
		prevPolls:  make(map[int]int),
	}
	return d, nil
}

// Close drops the client connection and stops the server (which closes the
// cluster).
func (d *WireDriver) Close() {
	_ = d.c.Close()
	d.srv.Close()
}

// Client exposes the driver's wire client.
func (d *WireDriver) Client() *wire.Client { return d.c }

// ensure lazily registers user u's authority list over the wire.
func (d *WireDriver) ensure(u int) (string, error) {
	name := d.pop.Name(u).String()
	if d.registered[u] {
		return name, nil
	}
	if err := d.c.Register(name, d.inner.authority(u)...); err != nil {
		return name, err
	}
	d.registered[u] = true
	return name, nil
}

// Population implements Driver.
func (d *WireDriver) Population() Population { return d.pop }

// Submit implements Driver: one submit request over the wire. The server's
// spool makes a nil error the all-or-nothing commit point, same as
// LiveDriver.
func (d *WireDriver) Submit(from int, to []int, subject, body string) (string, error) {
	fromName, err := d.ensure(from)
	if err != nil {
		return "", err
	}
	rcpts := make([]string, 0, len(to))
	for _, u := range to {
		name, err := d.ensure(u)
		if err != nil {
			return "", err
		}
		rcpts = append(rcpts, name)
	}
	return d.c.Submit(fromName, rcpts, subject, body)
}

// Retrieve implements Driver: a getmail request. Poll counts ride the
// response; the per-retrieval delta comes from the previous total.
func (d *WireDriver) Retrieve(u int) RetrieveResult {
	name, err := d.ensure(u)
	if err != nil {
		return RetrieveResult{}
	}
	resp, err := d.c.Do(wire.Request{Op: "getmail", User: name})
	if err != nil {
		return RetrieveResult{}
	}
	res := RetrieveResult{
		Polls:        resp.Polls - d.prevPolls[u],
		LastChecking: resp.LastChecking,
	}
	d.prevPolls[u] = resp.Polls
	for _, m := range resp.Messages {
		res.IDs = append(res.IDs, m.ID)
	}
	return res
}

// Step implements Driver.
func (d *WireDriver) Step(n int) { d.inner.Step(n) }

// Settle implements Driver: wait for the server-side spool to drain.
func (d *WireDriver) Settle() { d.inner.Settle() }

// Snapshot implements Driver. Taken cluster-side: identical content to what
// a status request returns, without perturbing the wire byte counters.
func (d *WireDriver) Snapshot() obs.Snapshot { return d.inner.Snapshot() }

// Tracer implements Driver.
func (d *WireDriver) Tracer() *obs.Tracer { return d.inner.Tracer() }

// Injector implements Driver: cluster-side fault injection, same surface as
// the live transport.
func (d *WireDriver) Injector() faults.Injector { return d.inner.Injector() }

// FaultSurface implements Driver.
func (d *WireDriver) FaultSurface() faults.Spec { return d.inner.FaultSurface() }

// ServerLoads implements Driver.
func (d *WireDriver) ServerLoads() []ServerLoad { return d.inner.ServerLoads() }

// Cluster exposes the server-side cluster for tests.
func (d *WireDriver) Cluster() *livenet.Cluster { return d.srv.Cluster() }
