package netsim

import (
	"testing"

	"github.com/largemail/largemail/internal/graph"
)

// letter is a payload with something to pin: a recycled box must hold none
// of it.
type letter struct {
	n    int
	body string
	to   []int
}

// crate is a payload that says how it is cleared, to keep its array.
type crate struct {
	tok   int
	items []string
}

func (c *crate) Reset() {
	clear(c.items)
	*c = crate{items: c.items[:0]}
}

// homecomings counts, per box, how often the network handed it back, and
// checks at that moment that it is cleared and on its list.
func homecomings(t *testing.T, net *Network, list *FreeList[letter]) map[*Box[letter]]int {
	t.Helper()
	back := map[*Box[letter]]int{}
	net.AfterRecycle(func(payload any) {
		b, ok := payload.(*Box[letter])
		if !ok {
			t.Errorf("AfterRecycle was handed %T", payload)
			return
		}
		back[b]++
		if b.V.n != 0 || b.V.body != "" || b.V.to != nil {
			t.Errorf("box came back holding %+v", b.V)
		}
		if len(list.free) == 0 || list.free[len(list.free)-1] != b {
			t.Error("box was handed back but is not on top of its free list")
		}
	})
	return back
}

// TestRecycledPayloadEveryEndOfAFlight: a box goes home exactly once, cleared,
// however its flight ends — delivered, destination down, no handler, injected
// drop — and also when Send or SendDirect refuses it; a value payload beside
// it is left alone.
func TestRecycledPayloadEveryEndOfAFlight(t *testing.T) {
	sched, net, recs := lineNet(t)
	var list FreeList[letter] // zero value: no set-up
	back := homecomings(t, net, &list)
	fly := func(name string, send func(payload any) error, wantErr bool, counter string) {
		t.Helper()
		b := list.Box(letter{n: 7, body: "hello", to: []int{1, 2}})
		before := net.Stats().Get(counter)
		if err := send(b); (err != nil) != wantErr {
			t.Fatalf("%s: Send err = %v", name, err)
		}
		if !wantErr && back[b] != 0 {
			t.Fatalf("%s: box handed back while still in the air", name)
		}
		sched.Run()
		if back[b] != 1 {
			t.Fatalf("%s: box handed back %d times, want exactly once", name, back[b])
		}
		if counter != "" && net.Stats().Get(counter) != before+1 {
			t.Fatalf("%s: counter %s did not move; the flight ended some other way", name, counter)
		}
		delete(back, b)
	}

	fly("delivered", func(p any) error { return net.Send(0, 3, p) }, false, "delivered")
	if got := recs[3].got; len(got) != 1 {
		t.Fatalf("node 3 got %d envelopes", len(got))
	}
	fly("delivered direct", func(p any) error { return net.SendDirect(0, 1, p) }, false, "delivered")

	fly("destination down", func(p any) error {
		err := net.Send(0, 2, p)
		net.Crash(2)
		return err
	}, false, "dropped_dest_down")
	net.Recover(2)

	net.SetDropProb(2, 1)
	fly("injected drop", func(p any) error { return net.Send(0, 2, p) }, false, "dropped_injected")
	net.SetDropProb(2, 0)

	fly("no handler", func(p any) error {
		err := net.Send(0, 2, p)
		net.Deregister(2)
		return err
	}, false, "dropped_no_handler")
	net.MustRegister(2, recs[2])

	net.Crash(0)
	fly("sender down", func(p any) error { return net.Send(0, 3, p) }, true, "")
	net.Recover(0)
	fly("unknown destination", func(p any) error { return net.Send(0, 99, p) }, true, "")
	fly("not neighbours", func(p any) error { return net.SendDirect(0, 3, p) }, true, "")
	if err := net.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	fly("no route", func(p any) error { return net.Send(0, 3, p) }, true, "")

	// One box served all of it, and a value payload never touches the lists.
	if len(list.free) != 1 {
		t.Errorf("sequential flights left %d boxes on the list, want the 1 they shared", len(list.free))
	}
	if err := net.Send(0, 1, letter{n: 1}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(back) != 0 {
		t.Errorf("a value payload was handed to AfterRecycle: %v", back)
	}
}

// TestRecycledPayloadNotReusedUnderItsReader: a handler that sends from inside
// Receive takes boxes from the very list the one it is reading came from, and
// must never be given that one — it goes home only after Receive returns.
func TestRecycledPayloadNotReusedUnderItsReader(t *testing.T) {
	sched, net, recs := lineNet(t)
	var list FreeList[letter]
	var seen []letter
	net.handlers[1] = HandlerFunc(func(env Envelope) {
		in := env.Payload.(*Box[letter])
		for hop := 0; hop < 3; hop++ {
			out := list.Box(letter{n: in.V.n + 100, body: "bounce"})
			if out == in {
				t.Fatal("the free list handed out the box that is still being read")
			}
			if err := net.Send(1, 3, out); err != nil {
				t.Error(err)
			}
		}
		seen = append(seen, in.V) // still intact after the sends
	})
	for i := 0; i < 5; i++ {
		if err := net.Send(0, 1, list.Box(letter{n: i, body: "ping"})); err != nil {
			t.Fatal(err)
		}
		sched.Run()
	}
	for i, l := range seen {
		if l.n != i || l.body != "ping" {
			t.Errorf("ping %d read %+v after sending from inside Receive", i, l)
		}
	}
	if len(recs[3].got) != 15 {
		t.Fatalf("node 3 got %d bounces, want 15", len(recs[3].got))
	}
	for _, env := range recs[3].got { // recorder kept the pointers: all home, all cleared
		if b := env.Payload.(*Box[letter]); b.V.n != 0 || b.V.body != "" {
			t.Errorf("a landed box still holds %+v", b.V)
		}
	}
	if len(list.free) != 4 {
		t.Errorf("%d boxes on the list, want 4: the ping's and its three bounces', reused every round", len(list.free))
	}
}

// TestRecycledPayloadResetKeepsArray: a payload with a Reset method is cleared
// by it — items dropped, array kept — and Get hands the same array out again.
func TestRecycledPayloadResetKeepsArray(t *testing.T) {
	sched, net, _ := lineNet(t)
	var list FreeList[crate]
	b := list.Get()
	b.V.tok = 3
	b.V.items = append(b.V.items, "a", "b", "c")
	array := &b.V.items[0]
	if err := net.Send(0, 2, b); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if b.V.tok != 0 || len(b.V.items) != 0 || cap(b.V.items) < 3 {
		t.Fatalf("recycled crate = %+v (cap %d), want empty with its array", b.V, cap(b.V.items))
	}
	for _, s := range b.V.items[:3] {
		if s != "" {
			t.Fatalf("the kept array still pins %q", s)
		}
	}
	again := list.Get()
	again.V.items = append(again.V.items, "d")
	if again != b || &again.V.items[0] != array {
		t.Error("Get did not hand the recycled box and its array out again")
	}
}

// TestRecycledPayloadAllocs (budget): with the box recycled, Send → land
// allocates nothing, where the same struct as a value costs its boxing.
func TestRecycledPayloadAllocs(t *testing.T) {
	sched, net, _ := randomNet(t, 5, 12, 6)
	for i := 0; i < 12; i++ {
		net.handlers[graph.NodeID(i)] = HandlerFunc(func(Envelope) {})
	}
	var letters FreeList[letter]
	var crates FreeList[crate]
	to := []int{1}
	nb := net.Topology().Neighbors(2)[0]
	round := func() {
		_ = net.Send(2, 7, letters.Box(letter{n: 1, body: "b", to: to}))
		c := crates.Get()
		c.V.items = append(c.V.items, "x", "y")
		_ = net.SendDirect(2, nb, c)
		sched.Run()
	}
	round() // routes cached, flights and boxes pooled, counters registered
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("Send → land of recycled payloads allocates %v, want 0", n)
	}
}
