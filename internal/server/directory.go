package server

import (
	"fmt"
	"slices"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
)

// Resolver is how a server resolves the names of its region: §3.1's
// replicated Directory, or §3.2's hash sub-groups (internal/locind), which
// have no groups or redirects. A list Resolve or Group returns is shared and
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
	// SetAuthority stores the slice it is given, which the caller gives up
	// (most users of a host share the host's one list), and nothing ever
	// writes to one in place, so Resolve hands the stored slice itself to
	// servers, pending transfers and name-service clients, none of which may
	// modify it. groups holds member lists on the same terms.
	authority map[names.Name][]graph.NodeID
	redirects map[names.Name]names.Name
	groups    map[names.Name][]names.Name
}

// NewDirectory returns an empty directory for a region.
func NewDirectory(region string) *Directory {
	return &Directory{
		region:    region,
		authority: make(map[names.Name][]graph.NodeID),
		redirects: make(map[names.Name]names.Name),
		groups:    make(map[names.Name][]names.Name),
	}
}

// Resolve returns the user's ordered authority-server list, or nil if the
// user is unknown: the stored list, shared and read-only (see the authority
// field), so a read copies nothing and a write is seen by the next read.
func (d *Directory) Resolve(user names.Name) []graph.NodeID { return d.authority[user] }

// Region returns the region this directory covers.
func (d *Directory) Region() string { return d.region }

// SetAuthority records the ordered authority-server list for a user: the
// slice itself, which the caller gives up (see the authority field). An empty
// list removes the user.
func (d *Directory) SetAuthority(user names.Name, servers []graph.NodeID) error {
	if user.Region != d.region {
		return fmt.Errorf("server: user %v is not in region %s", user, d.region)
	}
	if len(servers) == 0 {
		delete(d.authority, user)
	} else {
		d.authority[user] = servers
	}
	return nil
}

// SetRedirect records that mail for old should be re-addressed to new — the
// migration mechanism of §3.1.4: "between the two operations, mail addressed
// to a migrated user can be redirected to the new user address". The old
// name must belong to this region.
func (d *Directory) SetRedirect(old, new names.Name) error {
	if old.Region != d.region {
		return fmt.Errorf("server: redirect source %v is not in region %s", old, d.region)
	}
	d.redirects[old] = new
	return nil
}

// Redirect looks up the forwarding address for a migrated user.
func (d *Directory) Redirect(old names.Name) (names.Name, bool) {
	n, ok := d.redirects[old]
	return n, ok
}

// SetGroup registers a distribution list: mail addressed to the group name
// fans out to the members. This is the conventional "group naming"
// mechanism of §4.3 — the maintained-list baseline the attribute-based
// design replaces ("no distribution list has to be available", §3.3.1-B).
// The group name must be in this region and must not collide with a real
// user. The member slice is stored as given and the caller gives it up. An
// empty member list removes the group.
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
		d.groups[group] = members
	}
	return nil
}

// Group returns the members of a distribution list: the stored slice,
// shared and read-only.
func (d *Directory) Group(group names.Name) ([]names.Name, bool) {
	m, ok := d.groups[group]
	return m, ok
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
