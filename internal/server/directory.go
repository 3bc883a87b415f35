package server

import (
	"fmt"
	"slices"
	"sort"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

// Resolver is how a server resolves the names of its region: §3.1's
// replicated Directory, or §3.2's hash sub-groups (internal/locind), which
// have no groups or redirects. A list Resolve returns is shared and
// read-only, and stays what it was when a reconfiguration replaces it.
type Resolver interface {
	Region() string
	Resolve(user names.Name) []graph.NodeID
	Group(group names.Name) ([]names.Name, bool)
	Redirect(old names.Name) (names.Name, bool)
}

// Directory is one region's replicated name database: for every user of the
// region, the ordered authority-server list ("each user is assigned several
// authority servers, which are ordered in a list such that the first server
// in the list is the primary server", §3.1.1).
//
// The paper partially replicates this database across the region's servers;
// in the simulation all servers of a region share one Directory value, which
// models full intra-region replication with zero lookup cost — consistent
// with §3.1.2b: "if the recipient is located within the local region then
// his server can be located directly from other servers in the region".
type Directory struct {
	region string
	// authority holds each user's list. A stored list is immutable:
	// SetAuthority installs a fresh copy and nothing ever writes to one in
	// place, so Resolve hands the stored slice itself to servers, pending
	// transfers and name-service clients, none of which may modify it.
	authority map[names.Name][]graph.NodeID
	redirects map[names.Name]names.Name
	groups    map[names.Name][]names.Name

	// Resolution cache (§3.1.2a name-service queries): memoizes Resolve
	// results, both positive (the stored authority slice) and negative
	// (a nil entry, so group/redirect names stop paying a map miss on every
	// copy routed through them). Every directory write invalidates exactly
	// the names it touches, which is what the reconfig ops of §3.1.3/§3.1.4
	// (AddServer/RemoveServer/MigrateUser) flow through.
	cache     map[names.Name][]graph.NodeID
	hits      int64
	misses    int64
	hitsCtr   *obs.Counter // nil until Instrument
	missesCtr *obs.Counter

	// onEvent, when set, observes every placement event after the cache entry
	// for the touched name has been dropped. See OnPlacementEvent.
	onEvent func(kind PlacementEvent, user names.Name)
}

// PlacementEvent classifies a directory write that changed where a name
// resolves: every register/migrate/remove path funnels through exactly one
// placementEvent call, so the resolution cache cannot be left stale by a new
// placement policy reaching the directory through a path the older inline
// invalidations did not cover.
type PlacementEvent int

// Placement event kinds, one per mutating directory entry point.
const (
	EventAuthority  PlacementEvent = iota // SetAuthority (register/migrate/remove)
	EventRedirect                         // SetRedirect (§3.1.4 grace period start)
	EventUnredirect                       // RemoveRedirect (grace period end)
	EventGroup                            // SetGroup (distribution-list change)
)

// OnPlacementEvent installs a hook observing every placement event, called
// after the event's cache invalidation. Policies and drivers use it to chain
// their own caches (e.g. client authority lists) off directory truth.
func (d *Directory) OnPlacementEvent(fn func(kind PlacementEvent, user names.Name)) {
	d.onEvent = fn
}

// placementEvent is the single funnel for directory writes: it drops the
// touched name's resolution-cache entry and notifies the hook. All mutating
// entry points MUST route through here rather than touching d.cache inline,
// and must call it AFTER the write commits — a hook (or anything it calls)
// that re-Resolves the name must observe the new truth, not re-cache the
// old entry the event was invalidating.
func (d *Directory) placementEvent(kind PlacementEvent, user names.Name) {
	delete(d.cache, user)
	if d.onEvent != nil {
		d.onEvent(kind, user)
	}
}

// NewDirectory returns an empty directory for a region.
func NewDirectory(region string) *Directory {
	return &Directory{
		region:    region,
		authority: make(map[names.Name][]graph.NodeID),
		redirects: make(map[names.Name]names.Name),
		groups:    make(map[names.Name][]names.Name),
		cache:     make(map[names.Name][]graph.NodeID),
	}
}

// Instrument binds the resolution cache's hit/miss counters to a registry
// ("rescache_hits"/"rescache_misses"), typically the deployment's shared obs
// registry so drivers surface them in snapshots.
func (d *Directory) Instrument(reg *obs.Registry) {
	d.hitsCtr = reg.Counter("rescache_hits")
	d.missesCtr = reg.Counter("rescache_misses")
}

// CacheStats reports resolution-cache hits and misses since creation.
func (d *Directory) CacheStats() (hits, misses int64) { return d.hits, d.misses }

// Resolve returns the user's ordered authority-server list through the
// resolution cache (nil if the user is unknown). The result is the stored
// list, shared and read-only (see the authority field). Servers resolve
// recipients through this; Authority stays the uncached, copying
// administrative read.
func (d *Directory) Resolve(user names.Name) []graph.NodeID {
	list, ok := d.cache[user]
	if ok {
		d.hits++
		if d.hitsCtr != nil {
			d.hitsCtr.Inc()
		}
	} else {
		d.misses++
		if d.missesCtr != nil {
			d.missesCtr.Inc()
		}
		list = d.authority[user] // nil for unknown users: cached negative
		d.cache[user] = list
	}
	return list
}

// Region returns the region this directory covers.
func (d *Directory) Region() string { return d.region }

// SetAuthority records the ordered authority-server list for a user. The
// list is copied. An empty list removes the user.
func (d *Directory) SetAuthority(user names.Name, servers []graph.NodeID) error {
	if user.Region != d.region {
		return fmt.Errorf("server: user %v is not in region %s", user, d.region)
	}
	if len(servers) == 0 {
		delete(d.authority, user)
	} else {
		d.authority[user] = append([]graph.NodeID(nil), servers...)
	}
	d.placementEvent(EventAuthority, user)
	return nil
}

// Authority returns the user's ordered authority-server list, or nil if the
// user is unknown.
func (d *Directory) Authority(user names.Name) []graph.NodeID {
	list := d.authority[user]
	if list == nil {
		return nil
	}
	return append([]graph.NodeID(nil), list...)
}

// Users returns every registered user, sorted by name, for deterministic
// iteration in experiments.
func (d *Directory) Users() []names.Name {
	out := make([]names.Name, 0, len(d.authority))
	for u := range d.authority {
		out = append(out, u)
	}
	slices.SortFunc(out, names.Compare)
	return out
}

// Len reports the number of registered users.
func (d *Directory) Len() int { return len(d.authority) }

// SetRedirect records that mail for old should be re-addressed to new — the
// migration mechanism of §3.1.4: "between the two operations, mail addressed
// to a migrated user can be redirected to the new user address". The old
// name must belong to this region.
func (d *Directory) SetRedirect(old, new names.Name) error {
	if old.Region != d.region {
		return fmt.Errorf("server: redirect source %v is not in region %s", old, d.region)
	}
	d.redirects[old] = new
	d.placementEvent(EventRedirect, old)
	return nil
}

// Redirect looks up the forwarding address for a migrated user.
func (d *Directory) Redirect(old names.Name) (names.Name, bool) {
	n, ok := d.redirects[old]
	return n, ok
}

// RemoveRedirect deletes a forwarding record (the end of the migration
// grace period).
func (d *Directory) RemoveRedirect(old names.Name) {
	delete(d.redirects, old)
	d.placementEvent(EventUnredirect, old)
}

// SetGroup registers a distribution list: mail addressed to the group name
// fans out to the members. This is the conventional "group naming"
// mechanism of §4.3 — the maintained-list baseline the attribute-based
// design replaces ("no distribution list has to be available", §3.3.1-B).
// The group name must be in this region and must not collide with a real
// user. An empty member list removes the group.
func (d *Directory) SetGroup(group names.Name, members []names.Name) error {
	if group.Region != d.region {
		return fmt.Errorf("server: group %v is not in region %s", group, d.region)
	}
	if _, isUser := d.authority[group]; isUser {
		return fmt.Errorf("server: group %v collides with a registered user", group)
	}
	if len(members) == 0 {
		delete(d.groups, group)
	} else {
		d.groups[group] = append([]names.Name(nil), members...)
	}
	d.placementEvent(EventGroup, group)
	return nil
}

// Group returns the members of a distribution list.
func (d *Directory) Group(group names.Name) ([]names.Name, bool) {
	m, ok := d.groups[group]
	if !ok {
		return nil, false
	}
	return append([]names.Name(nil), m...), true
}

// RegionMap is the inter-region routing knowledge every server holds: which
// server nodes exist in each region, so a message for a non-local name can
// be "transmitted to one of the servers in the recipient region" (§3.1.2b).
type RegionMap struct {
	// servers holds each region's list. A stored list is immutable, like a
	// Directory's: AddServer and RemoveServer install a fresh slice and
	// nothing writes to one in place, so Servers hands out the stored slice
	// itself — to Route, whose pending transfers keep it as their candidate
	// list — and no caller may modify it. The field itself is never
	// reassigned, so a copied RegionMap shares its table with the original
	// (internal/locind's federation joins its regions' maps that way).
	servers map[string][]graph.NodeID
}

// NewRegionMap returns an empty region map.
func NewRegionMap() *RegionMap {
	return &RegionMap{servers: make(map[string][]graph.NodeID)}
}

// AddServer records a server as belonging to a region.
func (m *RegionMap) AddServer(region string, id graph.NodeID) {
	for _, s := range m.servers[region] {
		if s == id {
			return
		}
	}
	m.servers[region] = append(slices.Clip(m.servers[region]), id)
}

// RemoveServer removes a server from a region (part of §3.1.3c: the deleted
// server "notifies all other servers before it is removed").
func (m *RegionMap) RemoveServer(region string, id graph.NodeID) {
	out := slices.DeleteFunc(slices.Clone(m.servers[region]), func(s graph.NodeID) bool { return s == id })
	if len(out) == 0 {
		delete(m.servers, region)
		return
	}
	m.servers[region] = out
}

// Servers returns the servers of a region in registration order: the stored
// list, shared and read-only (see the servers field).
func (m *RegionMap) Servers(region string) []graph.NodeID { return m.servers[region] }

// Regions returns all known regions, sorted.
func (m *RegionMap) Regions() []string {
	out := make([]string, 0, len(m.servers))
	for r := range m.servers {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
