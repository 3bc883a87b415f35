package server

import (
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// Protocol payloads carried inside netsim envelopes. Everything that moves
// between user interfaces and servers, or between servers, is one of these
// types.

// SubmitRequest asks a mail server to accept a message for delivery
// (§3.1.2: "the message delivery process begins after the message is
// presented to the mail server for delivery"). Sent from a host node to its
// connected server.
type SubmitRequest struct {
	From    names.Name
	To      []names.Name
	Subject string
	Body    string
}

// SubmitAck confirms acceptance of a submission, carrying the message ID the
// server assigned plus the echoed subject so the submitting host can match
// the ack to the request it answers (submissions from one host may be acked
// out of order when they went to different servers). Sent back to the
// submitting host.
type SubmitAck struct {
	ID      mail.MessageID
	Subject string
}

// TransferKind distinguishes the two server-to-server transfer steps of the
// delivery pipeline.
type TransferKind int

const (
	// TransferDeposit hands a message to one of the recipient's authority
	// servers for buffering (§3.1.2c).
	TransferDeposit TransferKind = iota + 1
	// TransferForward relays a message into the recipient's region, where
	// "the name resolution process continues" (§3.1.2b).
	TransferForward
)

func (k TransferKind) String() string {
	switch k {
	case TransferDeposit:
		return "deposit"
	case TransferForward:
		return "forward"
	default:
		return "unknown"
	}
}

// Transfer moves a message between servers. The receiving server must reply
// with TransferAck; the origin retries against the next candidate server if
// no ack arrives in time, which is what guarantees no message is lost while
// at least one authority server is reachable.
type Transfer struct {
	Kind      TransferKind
	Msg       mail.Message
	Recipient names.Name
	Origin    graph.NodeID
	Token     uint64
	Attempt   int
}

// TransferAck confirms a Transfer identified by its token.
type TransferAck struct {
	Token uint64
}

// TransferBatch carries several transfers bound for one destination server
// in a single network envelope — the relay-batching fabric. Items keep their
// individual pending tokens (each is still a ledgered transfer awaiting
// delivery); Token identifies the batch itself, which is acknowledged as a
// unit with TransferBatchAck. A sender whose batch times out splits it and
// retries the still-pending items as individual Transfers, so batching never
// weakens the no-loss guarantee of the single-transfer protocol.
type TransferBatch struct {
	Origin graph.NodeID
	Token  uint64
	Items  []Transfer
}

// Reset is how a recycled box clears a batch (netsim.Box): every item is
// zeroed, so no message body stays pinned, and the array is kept for the
// next flush to fill.
func (tb *TransferBatch) Reset() {
	clear(tb.Items)
	*tb = TransferBatch{Items: tb.Items[:0]}
}

// TransferBatchAck confirms a TransferBatch. Failed lists the indices of
// items the receiver could not process; the origin re-dispatches exactly
// those as individual transfers (retry splitting on partial failure), while
// the rest are settled by this ack.
type TransferBatchAck struct {
	Token  uint64
	Failed []int
}

// Notify is the "alert signal" a server sends to a logged-on user's host
// when mail arrives for them (§3.1.2c).
type Notify struct {
	User   names.Name
	ID     mail.MessageID
	Server graph.NodeID
}

// Login tells a server that a user is now connected at a host; the server
// notifies them of buffered mail "as soon as he is connected" (§3.1.2c).
type Login struct {
	User names.Name
	Host graph.NodeID
}

// Logout tells a server the user disconnected.
type Logout struct {
	User names.Name
}
