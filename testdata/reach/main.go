// Command reach is the control for the reachability analysis in the root
// package's api_test.go. Every function below is reached except dead and
// registry.Get: one only from a package-level initialiser, one only through
// an interface literal in a type assertion, one as a method value handed to a
// callback, and one as a method of a generic type. registry.Get has the name
// of flag.Getter's method, but registry does not implement flag.Getter.
package main

import (
	"flag"

	"reach/opts"
)

var start = initial()

func initial() int { return 1 }

type counter struct{ n int }

// rewind is called through interface{ rewind() } alone, so no use names it.
func (c *counter) rewind() { c.n = 0 }

func (c *counter) bump() { c.n++ }

type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

type registry map[string]int

func (r registry) Get(k string) int { return r[k] }

func each(f func()) { f() }

func dead() {}

func main() {
	cfg := opts.Config{Window: opts.WindowSpec{start, 2}}
	flag.IntVar(&cfg.Main, "main", 0, "")
	flag.Parse()
	cfg = cfg.WithDefaults()
	c := &counter{n: cfg.Main + cfg.Own + cfg.Nothing}
	each(c.bump)
	var x any = c
	if r, ok := x.(interface{ rewind() }); ok {
		r.rewind()
	}
	_ = box[int]{v: c.n}.get() + len(registry{})
}
