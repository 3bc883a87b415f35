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

// NodeID identifies a host, router or server of the internetwork, declared
// here so that the mail layers name nodes without linking internal/graph.
type NodeID int

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

// Rename returns the name a migrated user obtains in the syntax-directed
// design (§3.1.4): the location tokens change, the user token is preserved.
func (n Name) Rename(newRegion, newHost string) Name {
	return Name{Region: newRegion, Host: newHost, User: n.User}
}

// Subgroup maps the name to one of k hash sub-groups within its region.
// The paper's location-independent design divides regions "into small
// groups of manageable size using some mapping functions" (§3.2.1) and
// resolves a name "within the context of that sub-group" (§3.2.2b). The
// hash skips the host, so roaming keeps the sub-group, and is Lamping–Veach
// jump consistent: from k to k+1 sub-groups a name moves only into group k.
func (n Name) Subgroup(k int) int {
	if k <= 0 {
		return 0
	}
	key := uint64(14695981039346656037) // FNV-1a 64 of region, 0, user
	for _, s := range [...]string{n.Region, "\x00", n.User} {
		for i := 0; i < len(s); i++ {
			key = (key ^ uint64(s[i])) * 1099511628211
		}
	}
	b, j := int64(-1), int64(0)
	for j < int64(k) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64(key>>33+1)))
	}
	return int(b)
}
