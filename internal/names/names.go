// Package names implements the naming conventions of the paper's mail
// systems.
//
// The paper uses "a three level hierarchical name in the form of
// region.host.user" (§3.1.1): the region name is globally unique, the host
// name unique within a region, and the user name locally unique within a
// host. Names are "structured as a set of alphanumeric strings chosen from a
// finite alphabet and separated by delimiters" (§2). The set of names
// complying with the convention is the name space; it is partitioned into
// region contexts and, within a region, into hash sub-groups (§3.2.2b: "a
// hash function is applied to the name to find out in which sub-group the
// name belongs").
package names

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
)

// Delimiter separates the tokens of a hierarchical name. The paper's body
// uses "region.host.user"; the conclusion writes "region@host@user" — both
// are accepted on parse, Delimiter is used when formatting.
const Delimiter = "."

// Validation errors.
var (
	ErrEmptyToken   = errors.New("names: empty name token")
	ErrBadToken     = errors.New("names: token contains characters outside the naming alphabet")
	ErrBadStructure = errors.New("names: name must have exactly three tokens (region.host.user)")
)

// Name is a fully qualified, location-dependent user name.
type Name struct {
	Region string
	Host   string
	User   string
}

// String formats the name as region.host.user.
func (n Name) String() string {
	return n.Region + Delimiter + n.Host + Delimiter + n.User
}

// AppendTo appends the name's String() form to dst, without building it.
func (n Name) AppendTo(dst []byte) []byte {
	dst = append(dst, n.Region...)
	dst = append(dst, Delimiter...)
	dst = append(dst, n.Host...)
	dst = append(dst, Delimiter...)
	return append(dst, n.User...)
}

// TextLen is len(n.String()).
func (n Name) TextLen() int {
	return len(n.Region) + len(n.Host) + len(n.User) + 2*len(Delimiter)
}

// Compare orders two names exactly as their String() forms order, without
// building either string: -1, 0 or +1. Comparing token by token would be
// wrong — '-' sorts before the '.' delimiter, so "a-b.h.u" < "a.h.u" although
// "a" < "a-b" — so it walks the five pieces of each virtual string (the
// tokens and the delimiters between them) a common-length run at a time.
func Compare(a, b Name) int {
	as := [5]string{a.Region, Delimiter, a.Host, Delimiter, a.User}
	bs := [5]string{b.Region, Delimiter, b.Host, Delimiter, b.User}
	i, j := 0, 0
	ra, rb := as[0], bs[0]
	for {
		for ra == "" && i < len(as)-1 {
			i++
			ra = as[i]
		}
		for rb == "" && j < len(bs)-1 {
			j++
			rb = bs[j]
		}
		if ra == "" || rb == "" { // a string ended: the shorter sorts first
			return cmp.Compare(len(ra), len(rb))
		}
		n := min(len(ra), len(rb))
		if c := strings.Compare(ra[:n], rb[:n]); c != 0 {
			return c
		}
		ra, rb = ra[n:], rb[n:]
	}
}

// IsZero reports whether the name is entirely empty.
func (n Name) IsZero() bool { return n == Name{} }

// Validate checks the name against the naming convention: exactly three
// non-empty alphanumeric tokens (hyphen and underscore allowed after the
// first character).
func (n Name) Validate() error {
	for _, tok := range []string{n.Region, n.Host, n.User} {
		if err := validateToken(tok); err != nil {
			return err
		}
	}
	return nil
}

func validateToken(tok string) error {
	if tok == "" {
		return ErrEmptyToken
	}
	if !inAlphabet(tok) {
		return fmt.Errorf("%w: %q", ErrBadToken, tok)
	}
	return nil
}

// inAlphabet reports whether a non-empty token is drawn from the naming
// alphabet: letters and digits, hyphen and underscore after the first
// character. Every byte of a multi-byte rune is outside it.
func inAlphabet[T string | []byte](tok T) bool {
	for i := 0; i < len(tok); i++ {
		switch c := tok[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// Parse parses "region.host.user" (or "region@host@user") into a Name and
// validates it.
func Parse(s string) (Name, error) {
	sep := Delimiter
	if strings.Contains(s, "@") && !strings.Contains(s, Delimiter) {
		sep = "@"
	}
	// Exactly two separators; Cut keeps the wire's per-request parses free
	// of the slice strings.Split would allocate.
	region, rest, ok1 := strings.Cut(s, sep)
	host, user, ok2 := strings.Cut(rest, sep)
	if !ok1 || !ok2 || strings.Contains(user, sep) {
		return Name{}, fmt.Errorf("%w: %q", ErrBadStructure, s)
	}
	n := Name{Region: region, Host: host, User: user}
	if err := n.Validate(); err != nil {
		return Name{}, err
	}
	return n, nil
}

// Tokens is Parse for a name still in a read buffer: it cuts text into its
// three tokens, which alias text, and reports ok exactly where
// Parse(string(text)) succeeds. A caller that only looks the name up converts
// the tokens inside the map index expression and so allocates nothing.
func Tokens(text []byte) (region, host, user []byte, ok bool) {
	sep := byte('.')
	if bytes.IndexByte(text, sep) < 0 && bytes.IndexByte(text, '@') >= 0 {
		sep = '@'
	}
	i := bytes.IndexByte(text, sep)
	j := bytes.LastIndexByte(text, sep)
	if i <= 0 || j <= i+1 || j == len(text)-1 || bytes.IndexByte(text[i+1:j], sep) >= 0 {
		return nil, nil, nil, false
	}
	region, host, user = text[:i], text[i+1:j], text[j+1:]
	if !inAlphabet(region) || !inAlphabet(host) || !inAlphabet(user) {
		return nil, nil, nil, false
	}
	return region, host, user, true
}

// MustParse is Parse for static test fixtures; it panics on error.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// SameRegion reports whether two names live in the same region — the test
// that decides between local resolution and inter-region forwarding
// (§3.1.2b).
func (n Name) SameRegion(other Name) bool { return n.Region == other.Region }

// Rename returns the name a migrated user obtains in the syntax-directed
// design (§3.1.4): the location tokens change, the user token is preserved.
func (n Name) Rename(newRegion, newHost string) Name {
	return Name{Region: newRegion, Host: newHost, User: n.User}
}

// Subgroup maps the name to one of k hash sub-groups within its region.
// The paper's location-independent design divides regions "into small
// groups of manageable size using some mapping functions" (§3.2.1) and
// resolves a name "within the context of that sub-group" (§3.2.2b). The
// hash covers only the user token, so a user keeps their sub-group while
// roaming between hosts of the region.
func (n Name) Subgroup(k int) int {
	if k <= 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(n.Region))
	h.Write([]byte{0})
	h.Write([]byte(n.User))
	return int(h.Sum32() % uint32(k))
}

// Space is a partitioned name space: the set of registered names grouped by
// region context. A single centralized database "is too inefficient to use
// and manage" in a large system (§2), so Space hands out per-region
// contexts that servers replicate.
type Space struct {
	regions map[string]*Context
}

// NewSpace returns an empty name space.
func NewSpace() *Space {
	return &Space{regions: make(map[string]*Context)}
}

// Context is the subset of the name space for one region.
type Context struct {
	Region string
	byHost map[string]map[string]Name
	count  int
}

// Region returns the context for a region, creating it on first use.
func (s *Space) Region(region string) *Context {
	c, ok := s.regions[region]
	if !ok {
		c = &Context{Region: region, byHost: make(map[string]map[string]Name)}
		s.regions[region] = c
	}
	return c
}

// Regions returns the number of region contexts.
func (s *Space) Regions() int { return len(s.regions) }

// Register adds the name to its region's context. Duplicate registrations
// within a host fail: user names are "locally unique within a host"
// (§3.1.1).
func (s *Space) Register(n Name) error {
	if err := n.Validate(); err != nil {
		return err
	}
	return s.Region(n.Region).register(n)
}

// Unregister removes the name. Removing an unknown name fails.
func (s *Space) Unregister(n Name) error {
	c, ok := s.regions[n.Region]
	if !ok {
		return fmt.Errorf("names: unregister %v: unknown region", n)
	}
	return c.unregister(n)
}

// Contains reports whether the exact name is registered.
func (s *Space) Contains(n Name) bool {
	c, ok := s.regions[n.Region]
	if !ok {
		return false
	}
	_, ok = c.byHost[n.Host][n.User]
	return ok
}

// Len reports the total number of registered names.
func (s *Space) Len() int {
	total := 0
	for _, c := range s.regions {
		total += c.count
	}
	return total
}

func (c *Context) register(n Name) error {
	host := c.byHost[n.Host]
	if host == nil {
		host = make(map[string]Name)
		c.byHost[n.Host] = host
	}
	if _, dup := host[n.User]; dup {
		return fmt.Errorf("names: %v already registered", n)
	}
	host[n.User] = n
	c.count++
	return nil
}

func (c *Context) unregister(n Name) error {
	host := c.byHost[n.Host]
	if _, ok := host[n.User]; !ok {
		return fmt.Errorf("names: %v not registered", n)
	}
	delete(host, n.User)
	c.count--
	return nil
}

// Len reports the number of names registered in this region context.
func (c *Context) Len() int { return c.count }

// Lookup finds a registered name by host and user token.
func (c *Context) Lookup(host, user string) (Name, bool) {
	n, ok := c.byHost[host][user]
	return n, ok
}

// LookupUser finds a registered name by user token alone, scanning the
// region — the resolution mode of the location-independent design, where
// the host token is only the primary location (§3.2.1). If several hosts
// register the same user token, the lexically smallest host wins, keeping
// resolution deterministic.
func (c *Context) LookupUser(user string) (Name, bool) {
	var best Name
	found := false
	for _, users := range c.byHost {
		if n, ok := users[user]; ok {
			if !found || n.Host < best.Host {
				best = n
				found = true
			}
		}
	}
	return best, found
}
