// Livewire: the same mail semantics on the live runtime — goroutine-per-
// server cluster behind the TCP wire protocol. Starts a daemon in-process,
// drives it over a real socket, crashes the primary, and shows that the
// failover and GetMail behaviour matches the simulated systems.
package main

import (
	"fmt"
	"log"

	"github.com/largemail/largemail/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	srv, err := wire.NewServer("127.0.0.1:0", []string{"s1", "s2", "s3"})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Println("cluster listening on", srv.Addr())

	c, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()

	// Authority lists as in §3.1.1: ordered, primary first.
	if err := c.Register("R1.h1.alice", "s1", "s2", "s3"); err != nil {
		return err
	}
	if err := c.Register("R1.h2.bob", "s2", "s3", "s1"); err != nil {
		return err
	}

	id, err := c.Submit("R1.h2.bob", []string{"R1.h1.alice"}, "hello", "over a real socket")
	if err != nil {
		return err
	}
	fmt.Println("accepted", id)

	// Crash the primary: the next deposit fails over down the list.
	if err := c.SetAvailability("s1", false); err != nil {
		return err
	}
	if _, err := c.Submit("R1.h2.bob", []string{"R1.h1.alice"}, "failover", "primary is down"); err != nil {
		return err
	}
	status, err := c.Status()
	if err != nil {
		return err
	}
	for _, s := range status.Servers {
		fmt.Printf("  %s up=%v deposits=%d\n", s.Name, s.Up, s.Deposits)
	}

	// GetMail (the §3.1.2c walk) runs server-side; with s1 down it returns
	// the failover copy; after recovery, the stranded one.
	msgs, err := c.GetMail("R1.h1.alice")
	if err != nil {
		return err
	}
	for _, m := range msgs {
		fmt.Printf("got %q while primary down\n", m.Subject)
	}
	if err := c.SetAvailability("s1", true); err != nil {
		return err
	}
	msgs, err = c.GetMail("R1.h1.alice")
	if err != nil {
		return err
	}
	for _, m := range msgs {
		fmt.Printf("got %q after recovery — nothing lost\n", m.Subject)
	}
	return nil
}
