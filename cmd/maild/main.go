// Command maild runs a live mail cluster (goroutine-per-server) behind the
// TCP wire protocol (internal/wire). It is the deployable face of the
// reproduction: the paper's authority-list delivery and GetMail semantics,
// reachable from any process.
//
// Usage:
//
//	maild -listen 127.0.0.1:7425 -servers s1,s2,s3
//	maild -listen 127.0.0.1:7425 -servers s1,s2,s3 -datadir /var/lib/maild
//
// With -datadir every server journals its mailbox store to
// <datadir>/<server>; restarting maild over the same directory recovers all
// buffered mail by WAL replay. -fsync always trades a disk flush per
// mutation for surviving OS crashes, not just process deaths.
//
// Term indexes (and the sketches the wire query verb probes) are on by
// default; -termindex=false sheds their deposit-path cost on clusters that
// never serve queries.
//
// Stop with SIGINT/SIGTERM; the daemon drains connections and shuts the
// cluster down.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "maild:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("maild", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7425", "TCP listen address")
	servers := fs.String("servers", "s1,s2,s3", "comma-separated mail server names")
	datadir := fs.String("datadir", "", "durable store root (empty = memory-only stores)")
	fsyncFlag := fs.String("fsync", "never", "WAL fsync policy with -datadir: never|always")
	workers := fs.Int("workers", 0, "wire worker-pool size (0 = GOMAXPROCS)")
	policyFlag := fs.String("policy", "", "placement policy for registrations that name no servers: static|jsq|rebalance (empty = all servers, registration order)")
	jsqd := fs.Int("d", 2, "JSQ(d) sample width (with -policy jsq)")
	termIndex := fs.Bool("termindex", true, "maintain per-store term indexes and sketches (serves the query verb)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fsync, err := mailstore.ParseFsyncMode(*fsyncFlag)
	if err != nil {
		return err
	}
	policy := ""
	if *policyFlag != "" {
		if policy, err = placement.ParseName(*policyFlag); err != nil {
			return err
		}
	}
	names := strings.Split(*servers, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	srv, err := wire.NewServerWith(*listen, names, wire.ServerConfig{
		Cluster:     livenet.ClusterConfig{DataDir: *datadir, Fsync: fsync, TermIndex: *termIndex},
		WireWorkers: *workers,
	})
	if err != nil {
		return err
	}
	if policy != "" {
		installPolicy(srv.Cluster(), policy, *jsqd, names)
		fmt.Printf("maild placement policy: %s\n", policy)
	}
	if *datadir != "" {
		fmt.Printf("maild listening on %s with servers %v (durable: %s, fsync=%s)\n",
			srv.Addr(), names, *datadir, fsync)
	} else {
		fmt.Printf("maild listening on %s with servers %v\n", srv.Addr(), names)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("maild: shutting down")
	srv.Close()
	return nil
}

// installPolicy builds the requested placement policy over the daemon's flat
// fleet (one region, all named servers) and installs it on the cluster.
// maild runs no engine tick, so "rebalance" places like static here —
// migrations are executed by the loadgen drivers.
func installPolicy(cl *livenet.Cluster, policy string, d int, names []string) {
	world := placement.World{
		Regions:          1,
		ServersPerRegion: len(names),
		HostsPerRegion:   len(names),
		AuthorityLen:     2,
	}
	label := func(slot int) string { return names[slot] }
	pcfg := placement.Config{World: world, D: d, Gauges: cl.Obs(), Label: label}
	cl.SetPlacement(placement.New(policy, placement.NewRoundRobin(world), pcfg), label)
}
