// Package queueing provides the queueing-theoretic estimates the paper's
// server-assignment algorithm relies on.
//
// §3.1.1 approximates "the average waiting time on a specific server ... by
// the average waiting time of an M/M/1 queue": Q(ρ) = ρ/(1-ρ) when ρ < 0.99,
// and "a very large constant" B otherwise, where ρ = L/M is the server's
// utilisation estimate (current load over maximum load).
package queueing

import "math"

// SaturationPenalty is the paper's "very large constant β" returned for
// servers at or beyond the utilisation cutoff. Its exact magnitude only
// needs to dwarf any realistic connection cost so the balancer always moves
// users off saturated servers first.
const SaturationPenalty = 1e9

// UtilizationCutoff is the ρ above which a server counts as saturated
// (the paper's 0.99).
const UtilizationCutoff = 0.99

// Wait returns the paper's estimate for average waiting time at a server
// with utilisation rho: rho/(1-rho) for rho < UtilizationCutoff, and
// SaturationPenalty otherwise (including any rho ≥ 1, where the M/M/1
// formula is meaningless). Negative rho is treated as an idle server.
func Wait(rho float64) float64 {
	if rho <= 0 || math.IsNaN(rho) {
		return 0
	}
	if rho >= UtilizationCutoff {
		return SaturationPenalty
	}
	return rho / (1 - rho)
}

// Utilization returns load/max clamped below at zero. A non-positive max
// means the server can hold nothing: any load saturates it.
func Utilization(load, max int) float64 {
	if max <= 0 {
		if load > 0 {
			return math.Inf(1)
		}
		return 0
	}
	if load <= 0 {
		return 0
	}
	return float64(load) / float64(max)
}
