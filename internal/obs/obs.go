// Package obs is the unified observability layer: one instrumentation API
// shared by the discrete-event simulation and the live concurrent runtime.
//
// The paper's whole §4 evaluation rests on measuring delivery delay, poll
// counts and server load, so instrumentation is a first-class subsystem, not
// an afterthought: a concurrency-safe Registry of named counters, gauges and
// fixed-bucket latency histograms (with p50/p95/p99 snapshots), plus a
// message-lifecycle Tracer that stamps spans across the §3.1.2 delivery
// pipeline — submit → resolve → relay → deposit → notify → retrieve — keyed
// by message ID. Both work identically on the simulated clock (microticks
// from sim.Scheduler.Now) and the wall clock (UnixNano): time is just an
// int64 handed in through a Clock.
//
// Snapshots export as a versioned JSON document and as the aligned-text/CSV
// tables the experiments render, so the paper's tables and the chaos-soak
// reports come from the same registry.
//
// Naming scheme (see DESIGN.md §6): counter and gauge names are snake_case
// "<area>_<event>" ("deposit_failovers", "spool_depth"); per-entity
// instruments append the entity after a dot ("s1.deposits"); latency
// histograms are "lat_<stage>" for stage-to-stage spans and "lat_e2e" for
// the submit→retrieve end-to-end span.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock reports the current instant as an int64 in arbitrary units: microticks
// on the simulated clock, nanoseconds on the wall clock. All instruments and
// spans in one registry/tracer should share one clock.
type Clock func() int64

// WallClock is the live runtime's clock: nanoseconds since the Unix epoch.
func WallClock() int64 { return time.Now().UnixNano() }

// Counter is a monotonically named cumulative count. Safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (which may be negative: some callers
// account corrections through the same instrument).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a named instantaneous value. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a concurrency-safe set of named instruments. The zero value is
// ready to use; NewRegistry exists for symmetry with the packages it
// replaced. Instruments are created on first touch and live for the life of
// the registry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return instrument(r, &r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return instrument(r, &r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (nil bounds take DefaultLatencyBuckets). Bounds
// passed on later calls for an existing name are ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return instrument(r, &r.hists, name, func() *Histogram { return NewHistogram(bounds) })
}

// instrument returns the named instrument of one of r's maps, made by mk
// and added on first use.
func instrument[T any](r *Registry, m *map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := (*m)[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = (*m)[name]; v != nil {
		return v
	}
	if *m == nil {
		*m = make(map[string]*T)
	}
	v = mk()
	(*m)[name] = v
	return v
}

// Add increments the named counter by delta. It is the migration-compatible
// surface of the old metrics.Registry/metrics.Shared counter API.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Counter(name).Inc() }

// Get returns the value of the named counter (zero if never touched).
func (r *Registry) Get(name string) int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// Counters returns a consistent copy of all counter values (nil for none).
func (r *Registry) Counters() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return values(r.counters, (*Counter).Value)
}

// Reset drops every instrument. Meant for tests and between experiment runs;
// instrument pointers handed out earlier keep working but are no longer
// reachable from the registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = nil
	r.gauges = nil
	r.hists = nil
}

// Snapshot returns a consistent, versioned copy of every instrument, ready
// for JSON export or table rendering.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Snapshot{
		Version:    SnapshotVersion,
		Counters:   values(r.counters, (*Counter).Value),
		Gauges:     values(r.gauges, (*Gauge).Value),
		Histograms: values(r.hists, (*Histogram).Snapshot),
	}
}

// values maps each instrument of m to its value, nil when m is empty.
func values[T, V any](m map[string]*T, value func(*T) V) map[string]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]V, len(m))
	for n, v := range m {
		out[n] = value(v)
	}
	return out
}
