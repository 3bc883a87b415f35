package loadgen

import (
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/wire"
)

// WireConfig parameterizes a WireDriver.
type WireConfig struct {
	Pop Population
}

// WireDriver drives the full TCP wire path: a wire.Server fronting a livenet
// cluster, and a wire.Client issuing every submit and retrieval as protocol
// requests. Placement (server names, authority lists, predicted loads) is
// identical to LiveDriver's round-robin scheme — the wire leg is the only
// difference.
type WireDriver struct {
	// The live driver over srv.Cluster(): placement, ticks, snapshot, tracer
	// and fault injection are cluster-side and its own; Submit, Retrieve and
	// registration go over the wire instead.
	*LiveDriver
	srv *wire.Server
	c   *wire.Client

	registered map[int]string // each registered user's name, spelled once
}

// NewWireDriver starts the server and dials the client. Call Close when done.
func NewWireDriver(cfg WireConfig) (*WireDriver, error) {
	cfg.Pop = cfg.Pop.withDefaults()
	names := make([]string, cfg.Pop.TotalServers())
	for gs := range names {
		names[gs] = serverLabel(gs)
	}
	srv, err := wire.NewServer("127.0.0.1:0", names) // loopback, ephemeral port
	if err != nil {
		return nil, err
	}
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &WireDriver{
		LiveDriver: newLiveDriver(srv.Cluster(), LiveConfig{Pop: cfg.Pop, Tick: liveTick}, placement.NameStatic),
		srv:        srv,
		c:          c,
		registered: make(map[int]string),
	}, nil
}

// Close drops the client connection and stops the server (which closes the
// cluster).
func (d *WireDriver) Close() {
	_ = d.c.Close()
	d.srv.Close()
}

// ensure lazily registers user u's authority list over the wire.
func (d *WireDriver) ensure(u int) (string, error) {
	if name, ok := d.registered[u]; ok {
		return name, nil
	}
	name := d.pop.Name(u).String()
	if err := d.c.Register(name, d.homeOf(u)...); err != nil {
		return name, err
	}
	d.registered[u] = name
	return name, nil
}

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
		// A server's IDs are canonical; text that is not leaves its copy
		// uncredited, and the audit reports it lost.
		if k, ok := obs.ParseKey(m.ID); ok {
			res.IDs = append(res.IDs, mail.MessageID{Node: names.NodeID(k.Node), Seq: k.Seq})
		}
	}
	return res
}
