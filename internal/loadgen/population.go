// Package loadgen is the repository's closed-loop workload engine: it
// synthesizes a user population with regional locality, drives seeded
// submit/retrieve traffic through a mail system behind the Driver interface
// (netsim event-time via SimDriver, livenet wall-clock via LiveDriver), and
// audits the paper's correctness claims online while it measures.
//
// The ROADMAP's north star is "heavy traffic from millions of users"; the
// population here is therefore virtual: users are integer indices with an
// O(1) index → (region, host) mapping, and only users actually touched by
// the workload (senders, recipients) materialize directories and agents.
// That is what lets a single process drive a million-user population — the
// same trick the paper's own evaluation plays by simulating user counts
// rather than user processes (§3.1.1 balances user *counts* per host).
//
// The invariant auditors (Auditors) layer on the existing obs tracer and a
// commit ledger: exactly-once deposit per recipient
// copy, no loss of committed messages across injected crashes, monotone
// LastCheckingTime per user, and §3.1.2c's "≈1 poll per retrieval when
// failure-free" guarantee — all checked during the run, not post-hoc.
package loadgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/placement"
)

// Population describes the shape of a synthetic user population. Users are
// virtual indices in [0, Users); user u lives on global host u mod
// TotalHosts, and hosts are grouped HostsPerRegion per region — so
// consecutive user indices spread round-robin across every host and region.
type Population struct {
	Users            int // population size (virtual; only touched users materialize)
	Regions          int // default 2
	HostsPerRegion   int // default 2 × ServersPerRegion
	ServersPerRegion int // default 4
	// AuthorityLen is the per-user authority-list length, clamped to
	// ServersPerRegion (default 2).
	AuthorityLen int
}

func (p Population) withDefaults() Population {
	if p.Users <= 0 {
		p.Users = 1000
	}
	if p.Regions <= 0 {
		p.Regions = 2
	}
	if p.ServersPerRegion <= 0 {
		p.ServersPerRegion = 4
	}
	if p.HostsPerRegion <= 0 {
		p.HostsPerRegion = 2 * p.ServersPerRegion
	}
	if p.AuthorityLen <= 0 {
		p.AuthorityLen = 2
	}
	if p.AuthorityLen > p.ServersPerRegion {
		p.AuthorityLen = p.ServersPerRegion
	}
	return p
}

// TotalHosts returns the number of host machines across all regions.
func (p Population) TotalHosts() int { return p.Regions * p.HostsPerRegion }

// TotalServers returns the number of mail servers across all regions.
func (p Population) TotalServers() int { return p.Regions * p.ServersPerRegion }

// HostOf maps a user index to its global host index.
func (p Population) HostOf(u int) int { return u % p.TotalHosts() }

// RegionOf maps a user index to its region index.
func (p Population) RegionOf(u int) int { return p.HostOf(u) / p.HostsPerRegion }

// UsersOnHost reports how many users the population homes on a global host
// index — the N_i counts the §3.1.1 assignment balances.
func (p Population) UsersOnHost(gh int) int {
	t := p.TotalHosts()
	n := p.Users / t
	if gh < p.Users%t {
		n++
	}
	return n
}

// MaxLoad is each server's capacity M_j: the uniform share of the population
// plus ~25% headroom, as core derives it.
func (p Population) MaxLoad() int {
	perServer := p.Users / p.TotalServers()
	return perServer + perServer/4 + 4
}

// world is the population as the placement policies index it.
func (p Population) world() placement.World {
	return placement.World{
		Regions:          p.Regions,
		ServersPerRegion: p.ServersPerRegion,
		HostsPerRegion:   p.HostsPerRegion,
		AuthorityLen:     p.AuthorityLen,
	}
}

// Node ID layout for generated topologies. Hosts and servers get disjoint
// ranges sized for million-user populations (graph.HostBase/ServerBase are
// only 100 apart — too tight for 128 hosts).
const (
	simHostBase   graph.NodeID = 0
	simServerBase graph.NodeID = 1 << 20
)

// hostID maps a global host index to its node ID; serverID likewise for a
// global server slot (region r, slot j → r*slots+j, where slots is
// ServersPerRegion plus the spare slots the topology was built with; a
// region's spare slots follow its wired ones).
func hostID(gh int) graph.NodeID   { return simHostBase + 1 + graph.NodeID(gh) }
func serverID(gs int) graph.NodeID { return simServerBase + 1 + graph.NodeID(gs) }

func hostLabel(gh int) string   { return fmt.Sprintf("H%d", gh) }
func serverLabel(gs int) string { return fmt.Sprintf("S%d", gs) }

// topology wires the deterministic regional network the simulated drivers
// run on: every host spokes into one of its region's servers (weight 1), the
// region's servers form a ring (weight 1) so every server pair has two
// disjoint routes, and region r's first server links to region r+1's
// (weight 2) closing an inter-region ring. spares more nodes per region join
// their region's ring after the wired servers, tagged routers — which is what
// a node without a server process is — until AddServer claims one. It also
// returns the label → node map fault injectors resolve event targets through.
func (p Population) topology(spares int) (*graph.Graph, map[string]graph.NodeID) {
	g := graph.New()
	nodes := make(map[string]graph.NodeID)
	add := func(id graph.NodeID, label, region string, kind graph.Kind) {
		g.MustAddNode(graph.Node{ID: id, Label: label, Region: region, Kind: kind})
		nodes[label] = id
	}
	slots := p.ServersPerRegion + spares
	for r := 0; r < p.Regions; r++ {
		region := p.RegionName(r)
		for j := 0; j < slots; j++ {
			kind := graph.KindServer
			if j >= p.ServersPerRegion {
				kind = graph.KindRouter
			}
			add(serverID(r*slots+j), serverLabel(r*slots+j), region, kind)
		}
		for j := 0; j < slots; j++ {
			next := (j + 1) % slots
			if next == j {
				break // single-server region: no ring
			}
			g.MustAddEdge(serverID(r*slots+j), serverID(r*slots+next), 1)
			if slots == 2 {
				break // two servers: one edge, not a doubled ring
			}
		}
		for i := 0; i < p.HostsPerRegion; i++ {
			gh := r*p.HostsPerRegion + i
			add(hostID(gh), hostLabel(gh), region, graph.KindHost)
			g.MustAddEdge(hostID(gh), serverID(r*slots+i%p.ServersPerRegion), 1)
		}
	}
	for r := 0; r < p.Regions && p.Regions > 1; r++ {
		next := (r + 1) % p.Regions
		if next == r {
			break
		}
		g.MustAddEdge(serverID(r*slots), serverID(next*slots), 2)
		if p.Regions == 2 {
			break
		}
	}
	return g, nodes
}

// faultSurface is what a schedule may safely break on topology(spares), all
// window counts zero and Servers left to the driver. Drop targets are HOST
// nodes only: a server-bound drop would make a retry fail over past a live,
// stable authority server, stranding mail beyond where the recipient's
// GetMail walk stops; with in-process submission the only host-bound traffic
// is notifications, probes and alerts, which no delivery invariant depends on.
func (p Population) faultSurface(spares int) faults.Spec {
	spec := faults.Spec{Links: p.ringLinks(spares)}
	for gh := 0; gh < p.TotalHosts(); gh++ {
		spec.DropTargets = append(spec.DropTargets, hostLabel(gh))
	}
	return spec
}

// ringLinks lists the links a schedule may cut: intra-region ring edges
// between wired servers only, and only in regions with ≥3 servers, where the
// ring gives every server pair a second route — a host's spoke edge would
// partition it outright. With spares present the wrap edge runs through spare
// slots, so it is left out.
func (p Population) ringLinks(spares int) [][2]string {
	if p.ServersPerRegion < 3 {
		return nil
	}
	var links [][2]string
	slots := p.ServersPerRegion + spares
	for r := 0; r < p.Regions; r++ {
		for j := 0; j < p.ServersPerRegion; j++ {
			next := (j + 1) % p.ServersPerRegion
			if spares > 0 && next == 0 {
				break
			}
			links = append(links, [2]string{serverLabel(r*slots + j), serverLabel(r*slots + next)})
		}
	}
	return links
}

// Region, host and interest-group tokens depend on nothing but their index,
// so the first tokenTableLen of each are formatted once, at start-up, and
// shared by every population; Name then formats only the user token.
const tokenTableLen = 1024

var regionTokens, hostTokens, groupTokens = tokenTable("R"), tokenTable("h"), tokenTable("g")

func tokenTable(prefix string) *[tokenTableLen]string {
	var t [tokenTableLen]string
	for i := range t {
		t[i] = prefix + strconv.Itoa(i)
	}
	return &t
}

func token(table *[tokenTableLen]string, prefix string, i int) string {
	if i >= 0 && i < tokenTableLen {
		return table[i]
	}
	return prefix + strconv.Itoa(i)
}

// Name returns the user's syntax-directed name: region Rr, host token hg,
// user token u<index>.
func (p Population) Name(u int) names.Name {
	var buf [24]byte
	return p.nameAs(u, string(strconv.AppendInt(append(buf[:0], 'u'), int64(u), 10)))
}

// nameAs is Name with the user token, u<index>, already rendered.
func (p Population) nameAs(u int, user string) names.Name {
	return names.Name{Region: p.RegionName(p.RegionOf(u)), Host: token(hostTokens, "h", p.HostOf(u)), User: user}
}

// nameMint spells first-touched users' names: Population.Name, with each
// u<index> token a substring of a shared 4 KiB chunk, one allocation per
// ≈ 500 users. A chunk without room for the longest token is dropped, never
// rewritten, so every token handed out stays valid.
type nameMint struct{ chunk strings.Builder }

func (m *nameMint) name(p Population, u int) names.Name {
	var buf [24]byte // 'u' and any int
	tok := strconv.AppendInt(append(buf[:0], 'u'), int64(u), 10)
	if m.chunk.Cap()-m.chunk.Len() < len(buf) {
		m.chunk.Reset()
		m.chunk.Grow(4096)
	}
	m.chunk.Write(tok)
	return p.nameAs(u, m.chunk.String()[m.chunk.Len()-len(tok):])
}

// RegionName returns the token for a region index.
func (p Population) RegionName(r int) string { return token(regionTokens, "R", r) }

// UserIndex inverts Name: the population index behind a syntax-directed
// name's user token ("u<index>"), with false for tokens that are not a
// valid index in this population. The typed counterpart drivers use instead
// of reparsing name strings by hand.
func (p Population) UserIndex(n names.Name) (int, bool) {
	tok := n.User
	if len(tok) < 2 || tok[0] != 'u' {
		return 0, false
	}
	u, err := strconv.Atoi(tok[1:])
	if err != nil || u < 0 || u >= p.Users {
		return 0, false
	}
	return u, true
}

// Workload describes the per-message distributions of the closed-loop
// sessions a caller may shape: how many recipients, and how regionally local
// their correspondents are. Body sizes and think times are fixed.
type Workload struct {
	// maxRecipients caps the per-message recipient count; counts are drawn
	// 1..maxRecipients with a geometric-ish decay (default 3); the package's
	// no-spool soak sets 1.
	maxRecipients int
	// LocalBias is the probability that each recipient lives in the
	// sender's region (default 0.8 — the locality assumption behind the
	// paper's regional partitioning, §3.1.2b).
	LocalBias float64
}

const (
	// minBody and maxBody bound the message body size in bytes.
	minBody, maxBody = 64, 2048
	// thinkMin and thinkMax bound a session's think time between sends, in
	// schedule ticks.
	thinkMin, thinkMax = 3, 12
)

func (w Workload) withDefaults() Workload {
	if w.maxRecipients <= 0 {
		w.maxRecipients = 3
	}
	if w.LocalBias <= 0 || w.LocalBias > 1 {
		w.LocalBias = 0.8
	}
	return w
}

// sampleRecipients draws a recipient count in [1, maxRecipients]: each
// additional recipient survives with probability 0.4, so most mail is
// person-to-person with a decaying multi-recipient tail.
func (w Workload) sampleRecipients(rng *rand.Rand) int {
	n := 1
	for n < w.maxRecipients && rng.Float64() < 0.4 {
		n++
	}
	return n
}

// sampleBody draws a body size in [minBody, maxBody], skewed small by
// taking the minimum of two uniform draws.
func sampleBody(rng *rand.Rand) int {
	span := maxBody - minBody + 1
	a, b := rng.Intn(span), rng.Intn(span)
	if b < a {
		a = b
	}
	return minBody + a
}

// sampleThink draws a think time in [thinkMin, thinkMax] ticks.
func sampleThink(rng *rand.Rand) int {
	return thinkMin + rng.Intn(thinkMax-thinkMin+1)
}
