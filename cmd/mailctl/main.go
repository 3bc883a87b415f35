// Command mailctl is the command-line client for maild's wire protocol.
//
// Usage:
//
//	mailctl -addr 127.0.0.1:7425 register R1.h1.alice [s1 s2]
//	mailctl -timeout 2s submit R1.h2.bob R1.h1.alice "subject" "body"
//	mailctl getmail R1.h1.alice
//	mailctl query "content=budget"
//	mailctl status [-json]
//	mailctl crash s1 | recover s1
//
// status renders the cluster's versioned observability snapshot: per-server
// rows, counters/gauges, and per-stage latency quantiles. With -json the raw
// snapshot is printed instead, for scripting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mailctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mailctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7425", "maild address")
	timeout := fs.Duration("timeout", 0, "overall deadline for the command (0 = the client's per-attempt default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("need a command: register | submit | getmail | query | status | crash | recover")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c, err := wire.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()

	switch cmd := rest[0]; cmd {
	case "register":
		if len(rest) < 2 {
			return fmt.Errorf("usage: register <user> [servers...]")
		}
		if _, err := c.DoContext(ctx, wire.Request{Op: "register", User: rest[1], Servers: rest[2:]}); err != nil {
			return err
		}
		fmt.Println("registered", rest[1])
	case "submit":
		if len(rest) < 5 {
			return fmt.Errorf("usage: submit <from> <to> <subject> <body>")
		}
		resp, err := c.DoContext(ctx, wire.Request{Op: "submit", From: rest[1], To: []string{rest[2]}, Subject: rest[3], Body: rest[4]})
		if err != nil {
			return err
		}
		fmt.Println("accepted", resp.ID)
	case "getmail":
		if len(rest) != 2 {
			return fmt.Errorf("usage: getmail <user>")
		}
		resp, err := c.DoContext(ctx, wire.Request{Op: "getmail", User: rest[1]})
		if err != nil {
			return err
		}
		if len(resp.Messages) == 0 {
			fmt.Println("no new mail")
			return nil
		}
		for _, m := range resp.Messages {
			fmt.Printf("%s  from %s: %q\n%s\n", m.ID, m.From, m.Subject, m.Body)
		}
	case "status":
		sfs := flag.NewFlagSet("status", flag.ContinueOnError)
		asJSON := sfs.Bool("json", false, "print the raw snapshot as JSON")
		if err := sfs.Parse(rest[1:]); err != nil {
			return err
		}
		resp, err := c.DoContext(ctx, wire.Request{Op: "status"})
		if err != nil {
			return err
		}
		var snap wire.StatusSnapshot
		if resp.Status != nil {
			snap = *resp.Status
		}
		if *asJSON {
			out, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(out))
			return nil
		}
		renderStatus(snap)
	case "query":
		if len(rest) != 2 {
			return fmt.Errorf(`usage: query "<content=term[, content=term...]>"`)
		}
		resp, err := c.DoContext(ctx, wire.Request{Op: "query", Query: rest[1]})
		if err != nil {
			return err
		}
		for _, u := range resp.Matches {
			fmt.Println(u)
		}
		var st wire.QueryStats
		if resp.QueryStats != nil {
			st = *resp.QueryStats
		}
		fmt.Printf("%d match(es); %d server(s): %d visited, %d pruned", len(resp.Matches), st.Servers, st.Visited, st.Pruned)
		if st.SketchFP > 0 {
			fmt.Printf(" (%d sketch false positive(s))", st.SketchFP)
		}
		if st.Unavailable > 0 {
			fmt.Printf(", %d unavailable — result may be partial", st.Unavailable)
		}
		fmt.Println()
	case "crash", "recover":
		if len(rest) != 2 {
			return fmt.Errorf("usage: %s <server>", cmd)
		}
		if _, err := c.DoContext(ctx, wire.Request{Op: cmd, Server: rest[1]}); err != nil {
			return err
		}
		fmt.Println(cmd, rest[1], "ok")
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// balanceLine summarizes the placement gauges an active policy publishes:
// total queued mail, mean/max per-server ρ (fixed-point, placement.RhoScale),
// and the migration counters. Empty when no policy is running.
func balanceLine(snap wire.StatusSnapshot) string {
	var qdepth int64
	var rhoSum, rhoMax float64
	rhoN := 0
	for k, v := range snap.Gauges {
		switch {
		case strings.HasSuffix(k, ".qdepth"):
			qdepth += v
		case strings.HasSuffix(k, ".rho"):
			rho := float64(v) / placement.RhoScale
			rhoSum += rho
			if rho > rhoMax {
				rhoMax = rho
			}
			rhoN++
		}
	}
	mig := snap.Counters["migrations_total"]
	if rhoN == 0 && qdepth == 0 && mig == 0 {
		return ""
	}
	line := fmt.Sprintf("balance: %d queued", qdepth)
	if rhoN > 0 {
		line += fmt.Sprintf(", ρ mean %.3f max %.3f over %d servers", rhoSum/float64(rhoN), rhoMax, rhoN)
	}
	if mig > 0 {
		line += fmt.Sprintf(", %d migrations (%d messages moved)", mig, snap.Counters["migration_cost"])
	}
	return line
}

func fmtBytes(n int64) string {
	if n >= 1e6 {
		return fmt.Sprintf("%.2f MB", float64(n)/1e6)
	}
	return fmt.Sprintf("%.1f KB", float64(n)/1e3)
}

// renderStatus prints the snapshot as the server table followed by the
// registry's counter and latency tables (latencies scaled ns → ms).
func renderStatus(snap wire.StatusSnapshot) {
	fmt.Printf("status v%d\n", snap.Version)
	for _, s := range snap.Servers {
		state := "up"
		if !s.Up {
			state = "DOWN"
		}
		fmt.Printf("%-8s %-5s deposits=%d\n", s.Name, state, s.Deposits)
	}
	if in, out := snap.Counters["wire_bytes_in"], snap.Counters["wire_bytes_out"]; in+out > 0 {
		line := fmt.Sprintf("wire: %s in, %s out", fmtBytes(in), fmtBytes(out))
		if h, ok := snap.Histograms["lat_wire_decode"]; ok && h.Count > 0 {
			line += fmt.Sprintf(", decode p50 %.1fµs p99 %.1fµs over %d frames",
				h.P50/1e3, h.P99/1e3, h.Count)
		}
		fmt.Println(line)
	}
	if line := balanceLine(snap); line != "" {
		fmt.Println(line)
	}
	reg := obs.Snapshot{
		Version:    snap.Version,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	}
	if len(reg.Counters)+len(reg.Gauges) > 0 {
		fmt.Println()
		fmt.Print(reg.CounterTable("counters").Render())
	}
	if len(reg.Histograms) > 0 {
		fmt.Println()
		fmt.Print(reg.LatencyTable("latencies", 1e6, "ms").Render())
	}
}
