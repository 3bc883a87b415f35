// Package clock declares the instant every layer stamps: a message's
// submission and arrival, a journal record's deposit time. It imports
// nothing of the module, so the mail daemon can name a time without linking the
// discrete-event kernel (internal/sim) that advances it in the experiments.
package clock

import "fmt"

// Time is a virtual time instant measured in microticks.
//
// The paper speaks of abstract "time units" (e.g. "the average communication
// time is one time unit for all communication links", §3.1.1). One paper
// time unit is Unit microticks so that fractional costs such as the 0.5-unit
// message processing time stay exact in integer arithmetic.
type Time int64

// Unit is one paper "time unit" expressed in microticks.
const Unit Time = 1000

// Units reports the time as a float number of paper time units.
func (t Time) Units() float64 { return float64(t) / float64(Unit) }

// String formats the time in paper time units.
func (t Time) String() string { return fmt.Sprintf("%gu", t.Units()) }
