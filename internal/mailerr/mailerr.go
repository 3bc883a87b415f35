// Package mailerr is the shared error taxonomy of the mail system. Every
// transport and layer (internal/server, internal/livenet, internal/wire,
// internal/client) reports failures that fall into the same few categories —
// unknown recipient, unreachable server, oversized payload, deadline blown —
// and callers should be able to branch on the category with errors.Is
// regardless of which layer produced it.
//
// Each layer keeps its own sentinel (server.ErrDown, livenet.ErrServerDown,
// wire.ErrFrameTooLarge, ...) for source compatibility, but those sentinels
// wrap the taxonomy here, so both
//
//	errors.Is(err, livenet.ErrServerDown)
//	errors.Is(err, mailerr.ErrServerDown)
//
// hold. The wire protocol carries the category as a short machine-readable
// code (Response.Code) so a client can reconstruct the typed error on its
// side of the connection; Code and FromCode are the two halves of that
// mapping.
package mailerr

import (
	"errors"
	"fmt"
)

// The error taxonomy. These are category sentinels: concrete errors wrap
// them (errors.Is matches), they are never returned bare.
var (
	// ErrUnknownUser: the recipient has no authority servers / no mailbox.
	ErrUnknownUser = errors.New("unknown user")
	// ErrServerDown: the target server is crashed, unreachable, or closed.
	ErrServerDown = errors.New("server down")
	// ErrOversized: a payload exceeds a protocol or storage limit.
	ErrOversized = errors.New("oversized payload")
	// ErrTimeout: a per-request deadline or context expired.
	ErrTimeout = errors.New("timeout")
)

// Wire codes for the taxonomy, carried in wire.Response.Code.
const (
	CodeUnknownUser = "unknown_user"
	CodeServerDown  = "server_down"
	CodeOversized   = "oversized"
	CodeTimeout     = "timeout"
)

// Code maps an error to its taxonomy wire code, or "" if the error does not
// belong to the taxonomy.
func Code(err error) string {
	switch {
	case errors.Is(err, ErrUnknownUser):
		return CodeUnknownUser
	case errors.Is(err, ErrServerDown):
		return CodeServerDown
	case errors.Is(err, ErrOversized):
		return CodeOversized
	case errors.Is(err, ErrTimeout):
		return CodeTimeout
	default:
		return ""
	}
}

// FromCode reconstructs a typed error from a wire code and human-readable
// message. Unknown or empty codes yield a plain error carrying just the
// message (never nil: an empty message becomes "remote error").
func FromCode(code, msg string) error {
	if msg == "" {
		msg = "remote error"
	}
	switch code {
	case CodeUnknownUser:
		return fmt.Errorf("%s: %w", msg, ErrUnknownUser)
	case CodeServerDown:
		return fmt.Errorf("%s: %w", msg, ErrServerDown)
	case CodeOversized:
		return fmt.Errorf("%s: %w", msg, ErrOversized)
	case CodeTimeout:
		return fmt.Errorf("%s: %w", msg, ErrTimeout)
	default:
		return errors.New(msg)
	}
}
