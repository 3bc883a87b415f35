// Command reach is the control for the reachability analysis in the root
// package's api_test.go. Every function below is reached except dead: one
// only from a package-level initialiser, one only through an interface
// literal in a type assertion, one as a method value handed to a callback,
// and one as a method of a generic type.
package main

var start = initial()

func initial() int { return 1 }

type counter struct{ n int }

// rewind is called through interface{ rewind() } alone, so no use names it.
func (c *counter) rewind() { c.n = 0 }

func (c *counter) bump() { c.n++ }

type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

func each(f func()) { f() }

func dead() {}

func main() {
	c := &counter{n: start}
	each(c.bump)
	var x any = c
	if r, ok := x.(interface{ rewind() }); ok {
		r.rewind()
	}
	_ = box[int]{v: c.n}.get()
}
