// Package attr implements the attribute-based naming of §3.3: users are
// identified "by attributes instead of only by precise names", enabling
// directory look-up (including alias and misspelling tolerance), selective
// search, and mass distribution.
//
// "Each attribute has a type and a value. The 'type' indicates the format
// and the meaning of the value field." Profiles collect a user's attributes;
// a Query is a conjunction of predicates over them. Because "users must have
// the option to limit the access to their personal information to specific
// groups", every attribute carries a visibility setting that the matcher
// enforces against the querier's group memberships.
package attr

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/largemail/largemail/internal/names"
)

// Type is an attribute type from the paper's catalogue (§3.3.1): "names,
// nicknames, aliases, commonly misspelled names, nationality, ..., job
// title, type of job, organization, ..., expertise/specialty, experience,
// interests, and hobbies."
type Type string

// Attribute types used by the bundled examples and experiments. The set is
// open: any Type string is legal as long as queries and profiles agree.
const (
	TypeName         Type = "name"
	TypeNickname     Type = "nickname"
	TypeAlias        Type = "alias" // includes common misspellings
	TypeOrganization Type = "organization"
	TypeOrgType      Type = "org-type"
	TypeJobTitle     Type = "job-title"
	TypeCity         Type = "city"
	TypeState        Type = "state"
	TypeCountry      Type = "country"
	TypeExpertise    Type = "expertise"
	TypeInterest     Type = "interest"
	TypeNationality  Type = "nationality"
)

// Visibility controls who may match against an attribute.
type Visibility int

const (
	// Public attributes match for every querier.
	Public Visibility = iota + 1
	// Restricted attributes match only for queriers sharing one of the
	// owner's groups.
	Restricted
	// Hidden attributes never match; the owner keeps them for their own
	// records.
	Hidden
)

func (v Visibility) String() string {
	switch v {
	case Public:
		return "public"
	case Restricted:
		return "restricted"
	case Hidden:
		return "hidden"
	default:
		return fmt.Sprintf("Visibility(%d)", int(v))
	}
}

// Attribute is one typed, access-controlled fact about a user.
type Attribute struct {
	Type       Type
	Value      string
	Visibility Visibility
}

// Profile is a user's attribute record plus the groups that may see their
// restricted attributes.
type Profile struct {
	User   names.Name
	Attrs  []Attribute
	Groups []string // organizations/groups whose members may see Restricted attributes
}

// Add appends an attribute (convenience for building profiles).
func (p *Profile) Add(t Type, value string, vis Visibility) *Profile {
	p.Attrs = append(p.Attrs, Attribute{Type: t, Value: value, Visibility: vis})
	return p
}

// visible reports whether an attribute may be matched by a querier holding
// the given group memberships.
func (p *Profile) visible(a Attribute, querierGroups []string) bool {
	switch a.Visibility {
	case Public:
		return true
	case Restricted:
		for _, qg := range querierGroups {
			for _, g := range p.Groups {
				if qg == g {
					return true
				}
			}
		}
		return false
	default:
		return false
	}
}

// Op is a predicate operator.
type Op int

const (
	// OpEquals matches case-insensitively and exactly.
	OpEquals Op = iota + 1
	// OpPrefix matches a case-insensitive prefix.
	OpPrefix
	// OpOneOf matches any of the |-separated alternatives exactly.
	OpOneOf
	// OpFuzzy matches within a Levenshtein distance budget — the paper's
	// tolerance for "possible misspellings of the names" (§3.3-i). The
	// budget is 1 edit per 4 characters of the pattern, minimum 1.
	OpFuzzy
)

func (o Op) String() string {
	switch o {
	case OpEquals:
		return "="
	case OpPrefix:
		return "prefix"
	case OpOneOf:
		return "one-of"
	case OpFuzzy:
		return "~"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is one condition over one attribute type.
type Predicate struct {
	Type    Type
	Op      Op
	Pattern string
}

// Query is a conjunction of predicates evaluated on behalf of a querier
// with the given group memberships.
type Query struct {
	Predicates []Predicate
	// QuerierGroups are the groups the asking user belongs to, checked
	// against Restricted attributes.
	QuerierGroups []string
}

// ErrEmptyQuery is returned when a query has no predicates: matching
// everything by accident is how "flooding the network erroneously" starts.
var ErrEmptyQuery = errors.New("attr: query has no predicates")

// Validate rejects queries that would match unboundedly.
func (q Query) Validate() error {
	if len(q.Predicates) == 0 {
		return ErrEmptyQuery
	}
	for _, p := range q.Predicates {
		if p.Type == "" || p.Pattern == "" {
			return fmt.Errorf("attr: predicate %v has empty type or pattern", p)
		}
	}
	return nil
}

// Matches reports whether the profile satisfies every predicate, honouring
// attribute visibility for the querier.
func (q Query) Matches(p *Profile) bool {
	for _, pred := range q.Predicates {
		if !matchOne(p, pred, q.QuerierGroups) {
			return false
		}
	}
	return true
}

func matchOne(p *Profile, pred Predicate, groups []string) bool {
	for _, a := range p.Attrs {
		if a.Type != pred.Type || !p.visible(a, groups) {
			continue
		}
		if valueMatches(a.Value, pred) {
			return true
		}
	}
	return false
}

func valueMatches(value string, pred Predicate) bool {
	v := strings.ToLower(value)
	pat := strings.ToLower(pred.Pattern)
	switch pred.Op {
	case OpEquals:
		return v == pat
	case OpPrefix:
		return strings.HasPrefix(v, pat)
	case OpOneOf:
		for rest, more := pat, true; more; {
			var alt string
			alt, rest, more = strings.Cut(rest, "|")
			if v == strings.TrimSpace(alt) {
				return true
			}
		}
		return false
	case OpFuzzy:
		budget := len(pat) / 4
		if budget < 1 {
			budget = 1
		}
		return Levenshtein(v, pat) <= budget
	default:
		return false
	}
}

// Levenshtein computes the edit distance between two strings (insertions,
// deletions, substitutions), used to resolve "possible misspellings".
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Registry is one server's store of the profiles it is authoritative for —
// the per-node database the attribute search of §3.3.1-A consults.
type Registry struct {
	profiles map[names.Name]*Profile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{profiles: make(map[names.Name]*Profile)}
}

// Put registers or replaces a user's profile.
func (r *Registry) Put(p *Profile) error {
	if err := p.User.Validate(); err != nil {
		return err
	}
	cp := *p
	cp.Attrs = append([]Attribute(nil), p.Attrs...)
	cp.Groups = append([]string(nil), p.Groups...)
	r.profiles[p.User] = &cp
	return nil
}

// Remove deletes a user's profile; removing an absent profile is a no-op.
func (r *Registry) Remove(user names.Name) {
	delete(r.profiles, user)
}

// Get returns a user's profile.
func (r *Registry) Get(user names.Name) (*Profile, bool) {
	p, ok := r.profiles[user]
	return p, ok
}

// Len reports the number of profiles stored.
func (r *Registry) Len() int { return len(r.profiles) }

// Search returns the users whose profiles satisfy the query, sorted by name
// for determinism.
func (r *Registry) Search(q Query) ([]names.Name, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var out []names.Name
	for user, p := range r.profiles {
		if q.Matches(p) {
			out = append(out, user)
		}
	}
	slices.SortFunc(out, names.Compare)
	return out, nil
}
