package wire

import (
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

// MaxLine bounds one frame's payload (1 MiB), protecting the server from
// unbounded memory per connection.
const MaxLine = 1 << 20

// Request is the client→server frame.
type Request struct {
	Op      string   `json:"op"`
	User    string   `json:"user,omitempty"`
	Servers []string `json:"servers,omitempty"`
	Server  string   `json:"server,omitempty"`
	From    string   `json:"from,omitempty"`
	To      []string `json:"to,omitempty"`
	Subject string   `json:"subject,omitempty"`
	Body    string   `json:"body,omitempty"`
	// Msgs carries the batch on tbatch requests.
	Msgs []BatchMsg `json:"msgs,omitempty"`
	// Query carries an attr.Query in its canonical text form on query
	// requests, e.g. "content=budget".
	Query string `json:"query,omitempty"`
	// agent, on the server, is the user's agent a native getmail frame was
	// bound to by the connection's reader (Server.bind); User is then empty —
	// no string was made of it. Nil for every other request, and for a getmail
	// whose user the reader could not resolve, which goes by User.
	agent *userAgent
	// to is a native submit's recipients as the reader parsed them (decodeSubmit).
	to []names.Name
}

// BatchMsg is one message of a tbatch request. The whole batch shares the
// request's From.
type BatchMsg struct {
	To      []string `json:"to"`
	Subject string   `json:"subject,omitempty"`
	Body    string   `json:"body,omitempty"`
}

// BatchFailure reports one tbatch item the server could not submit. Index
// points into the request's Msgs; Code is the mailerr taxonomy code when the
// failure maps onto it.
type BatchFailure struct {
	Index int    `json:"index"`
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Message is a mail message on the wire.
type Message struct {
	ID      string `json:"id"`
	From    string `json:"from"`
	Subject string `json:"subject"`
	Body    string `json:"body"`
}

// ServerStatus is one row of a status response.
type ServerStatus struct {
	Name     string `json:"name"`
	Up       bool   `json:"up"`
	Deposits int64  `json:"deposits"`
}

// StatusSnapshot is the versioned result of the status op: per-server rows
// plus the cluster's full instrument set. Version follows obs.SnapshotVersion
// so consumers can key rendering decisions when the schema evolves.
type StatusSnapshot struct {
	Version int            `json:"version"`
	Servers []ServerStatus `json:"servers"`
	// Counters holds the cluster's flat counters: the fault/retry/spool set
	// (injected_drops, deposit_retries, deposit_failovers, submit_spooled,
	// spool_redelivered, spool_retries, ...), the wire-path byte counters
	// (wire_bytes_in, wire_bytes_out), plus the per-server
	// "<name>.deposits"/"<name>.checks" instruments.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds point-in-time levels, e.g. "spool_depth".
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms holds the tracer-fed per-stage latency distributions
	// ("lat_submit", "lat_deposit", "lat_retrieve", "lat_e2e", and the
	// request-decode cost "lat_wire_decode") with precomputed p50/p95/p99, in
	// nanoseconds.
	Histograms map[string]obs.HistogramSnapshot `json:"histograms,omitempty"`
}

// Response is the server→client frame.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the machine-readable mailerr taxonomy code for Error, when
	// the failure maps onto one (unknown_user, server_down, oversized,
	// timeout). Clients rebuild typed errors from it via mailerr.FromCode.
	Code     string    `json:"code,omitempty"`
	ID       string    `json:"id,omitempty"`
	Messages []Message `json:"messages,omitempty"`
	// id, on the server, is a submit's ID still as the cluster minted it; the
	// ack is formatted from it straight into the frame, and no string (ID) is
	// made of it.
	id mail.MessageID
	// stored, on the server, is a getmail/checkmail result still in the form
	// the mailbox gave it up in; the response is encoded straight from it
	// (appendStored), and no Messages are made of it. Read only: the
	// slice may be one a mailbox handed over (livenet.Agent.TakeMail). The
	// response is its last holder: connState.respond encodes it and then
	// hands it to mail.Release.
	stored []mail.Stored
	// Polls is the user's cumulative server-poll count after a getmail walk;
	// LastChecking is the walk's LastCheckingTime in UnixNano.
	// Together they let remote load generators run the paper's §3.1.2c poll
	// audits without in-process agent access.
	Polls        int   `json:"polls,omitempty"`
	LastChecking int64 `json:"last_checking,omitempty"`
	// IDs holds the per-item message IDs of a tbatch response, aligned with
	// the request's Msgs: "" for an item no recipient received, the ID for
	// one that reached some or all of them.
	IDs []string `json:"ids,omitempty"`
	// ids is to IDs what id is to ID (a zero ID for "").
	ids []mail.MessageID
	// Failed lists the tbatch items that were not submitted.
	Failed []BatchFailure `json:"failed,omitempty"`
	// Status carries the versioned observability snapshot on status
	// responses.
	Status *StatusSnapshot `json:"status,omitempty"`
	// Matches lists the users holding a match on query responses, sorted and
	// deduplicated across servers; QueryStats accounts the fan-out.
	Matches    []string    `json:"matches,omitempty"`
	QueryStats *QueryStats `json:"query_stats,omitempty"`
}

// QueryStats accounts one wire query's fan-out over the cluster: every
// server was either searched (Visited), skipped on a sketch proof of absence
// (Pruned), or down (Unavailable) — so Visited+Pruned+Unavailable = Servers,
// and a client can tell a complete result from a partial one.
type QueryStats struct {
	Servers     int `json:"servers"`
	Visited     int `json:"visited"`
	Pruned      int `json:"pruned,omitempty"`
	Unavailable int `json:"unavailable,omitempty"`
	// SketchFP counts visited servers whose sketch passed the probe but whose
	// search then returned nothing: Bloom false positives.
	SketchFP int `json:"sketch_fp,omitempty"`
}
