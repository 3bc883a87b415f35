package attr

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/largemail/largemail/internal/names"
)

func profAlice() *Profile {
	p := &Profile{User: names.MustParse("east.h1.alice"), Groups: []string{"acme"}}
	p.Add(TypeName, "Alice Liddell", Public).
		Add(TypeNickname, "Al", Public).
		Add(TypeAlias, "Alyce", Public).
		Add(TypeOrganization, "ACME", Public).
		Add(TypeExpertise, "distributed systems", Public).
		Add(TypeCity, "Boston", Restricted).
		Add(TypeNationality, "secret", Hidden)
	return p
}

func TestQueryValidate(t *testing.T) {
	if err := (Query{}).Validate(); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty query err = %v", err)
	}
	q := Query{Predicates: []Predicate{{Type: "", Op: OpEquals, Pattern: "x"}}}
	if err := q.Validate(); err == nil {
		t.Error("empty type accepted")
	}
	q = Query{Predicates: []Predicate{{Type: TypeName, Op: OpEquals, Pattern: ""}}}
	if err := q.Validate(); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestMatchOps(t *testing.T) {
	p := profAlice()
	cases := []struct {
		name string
		pred Predicate
		want bool
	}{
		{"equals hit", Predicate{TypeOrganization, OpEquals, "acme"}, true},
		{"equals case-insensitive", Predicate{TypeName, OpEquals, "ALICE LIDDELL"}, true},
		{"equals miss", Predicate{TypeOrganization, OpEquals, "other"}, false},
		{"prefix hit", Predicate{TypeExpertise, OpPrefix, "distributed"}, true},
		{"prefix miss", Predicate{TypeExpertise, OpPrefix, "systems"}, false},
		{"one-of hit", Predicate{TypeNickname, OpOneOf, "bob|al|cal"}, true},
		{"one-of miss", Predicate{TypeNickname, OpOneOf, "bob|cal"}, false},
		{"fuzzy misspelling", Predicate{TypeName, OpFuzzy, "Alice Lidell"}, true}, // 1 deletion
		{"fuzzy via alias", Predicate{TypeAlias, OpFuzzy, "Alycee"}, true},
		{"fuzzy too far", Predicate{TypeName, OpFuzzy, "Bob"}, false},
		{"wrong type", Predicate{TypeCountry, OpEquals, "acme"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := Query{Predicates: []Predicate{c.pred}}
			if got := q.Matches(p); got != c.want {
				t.Errorf("Matches(%+v) = %v, want %v", c.pred, got, c.want)
			}
		})
	}
}

func TestConjunction(t *testing.T) {
	p := profAlice()
	q := Query{Predicates: []Predicate{
		{TypeOrganization, OpEquals, "acme"},
		{TypeExpertise, OpPrefix, "distributed"},
	}}
	if !q.Matches(p) {
		t.Error("conjunction of satisfied predicates failed")
	}
	q.Predicates = append(q.Predicates, Predicate{TypeCountry, OpEquals, "US"})
	if q.Matches(p) {
		t.Error("conjunction with unsatisfied predicate matched")
	}
}

func TestVisibility(t *testing.T) {
	p := profAlice()
	city := Predicate{TypeCity, OpEquals, "boston"}

	// Restricted attribute: invisible to outsiders...
	if (Query{Predicates: []Predicate{city}}).Matches(p) {
		t.Error("restricted attribute matched for group-less querier")
	}
	// ...visible to members of a shared group.
	q := Query{Predicates: []Predicate{city}, QuerierGroups: []string{"acme"}}
	if !q.Matches(p) {
		t.Error("restricted attribute did not match for group member")
	}
	// Hidden attributes never match.
	h := Query{
		Predicates:    []Predicate{{TypeNationality, OpEquals, "secret"}},
		QuerierGroups: []string{"acme"},
	}
	if h.Matches(p) {
		t.Error("hidden attribute matched")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(identity, cfg); err != nil {
		t.Error(err)
	}
	// Triangle inequality on short ASCII strings.
	tri := func(a, b, c uint16) bool {
		sa, sb, sc := word(a), word(b), word(c)
		return Levenshtein(sa, sc) <= Levenshtein(sa, sb)+Levenshtein(sb, sc)
	}
	if err := quick.Check(tri, cfg); err != nil {
		t.Error(err)
	}
}

func word(x uint16) string {
	letters := "abcde"
	out := make([]byte, 0, 4)
	for i := 0; i < 4; i++ {
		out = append(out, letters[int(x)%len(letters)])
		x /= uint16(len(letters))
	}
	return string(out)
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Put(profAlice()); err != nil {
		t.Fatal(err)
	}
	bob := &Profile{User: names.MustParse("east.h2.bob")}
	bob.Add(TypeOrganization, "ACME", Public).Add(TypeExpertise, "databases", Public)
	if err := r.Put(bob); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	got, err := r.Search(Query{Predicates: []Predicate{{TypeOrganization, OpEquals, "acme"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("Search = %v, want both users", got)
	}
	if got[0].String() > got[1].String() {
		t.Error("Search results not sorted")
	}
	got, _ = r.Search(Query{Predicates: []Predicate{{TypeExpertise, OpPrefix, "data"}}})
	if len(got) != 1 || got[0].User != "bob" {
		t.Errorf("Search = %v, want bob only", got)
	}
	if _, err := r.Search(Query{}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty search err = %v", err)
	}
}

func TestRegistryPutValidatesAndCopies(t *testing.T) {
	r := NewRegistry()
	bad := &Profile{User: names.Name{Region: "x"}}
	if err := r.Put(bad); err == nil {
		t.Error("invalid user name accepted")
	}
	p := profAlice()
	if err := r.Put(p); err != nil {
		t.Fatal(err)
	}
	p.Attrs[0].Value = "mutated"
	stored := r.profiles[p.User]
	if stored.Attrs[0].Value == "mutated" {
		t.Error("Put aliased caller's attribute slice")
	}
}

func TestDirectoryLookupScenario(t *testing.T) {
	// §3.3-i: "users are allowed to provide aliases, nicknames or some
	// possible misspellings of the names. Together with some other
	// information of the intended recipients such as organization and
	// location."
	r := NewRegistry()
	r.Put(profAlice())
	q := Query{Predicates: []Predicate{
		{TypeName, OpFuzzy, "alise liddell"}, // misspelled
		{TypeOrganization, OpEquals, "acme"},
	}}
	got, err := r.Search(q)
	if err != nil || len(got) != 1 {
		t.Errorf("fuzzy directory lookup = %v, %v", got, err)
	}
}

func TestVisibilityString(t *testing.T) {
	for v, want := range map[Visibility]string{
		Public: "public", Restricted: "restricted", Hidden: "hidden",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
}

func TestOpString(t *testing.T) {
	for o, want := range map[Op]string{
		OpEquals: "=", OpPrefix: "prefix", OpOneOf: "one-of", OpFuzzy: "~",
	} {
		if o.String() != want {
			t.Errorf("Op %d String = %q, want %q", o, o.String(), want)
		}
	}
}

// Len reports the number of profiles stored.
func (r *Registry) Len() int { return len(r.profiles) }
