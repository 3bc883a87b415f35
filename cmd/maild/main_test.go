package main

import (
	"strings"
	"testing"
)

func TestBadListenAddr(t *testing.T) {
	if err := run([]string{"-listen", "256.256.256.256:1"}); err == nil {
		t.Error("bad listen address accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestPolicyRebalanceRefused: maild runs no engine tick and publishes no rho
// gauge, so a rebalancer would place exactly as static; the flag value is
// refused before anything listens.
func TestPolicyRebalanceRefused(t *testing.T) {
	err := run([]string{"-listen", "127.0.0.1:0", "-policy", "rebalance"})
	if err == nil || !strings.Contains(err.Error(), "places exactly as static") {
		t.Errorf("-policy rebalance: err = %v, want the refusal", err)
	}
}
