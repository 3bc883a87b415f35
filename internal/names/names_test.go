package names

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want Name
	}{
		{"east.alpha.alice", Name{"east", "alpha", "alice"}},
		{"R1.h2.u_3", Name{"R1", "h2", "u_3"}},
		{"east@alpha@alice", Name{"east", "alpha", "alice"}}, // conclusion's delimiter
		{"a.b-c.d", Name{"a", "b-c", "d"}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []struct {
		in      string
		wantErr error
	}{
		{"", ErrBadStructure},
		{"east.alice", ErrBadStructure},
		{"a.b.c.d", ErrBadStructure},
		{"east..alice", ErrEmptyToken},
		{"ea st.h.u", ErrBadToken},
		{"-east.h.u", ErrBadToken},
		{"east.h.u!", ErrBadToken},
	}
	for _, c := range cases {
		if _, err := Parse(c.in); !errors.Is(err, c.wantErr) {
			t.Errorf("Parse(%q) err = %v, want %v", c.in, err, c.wantErr)
		}
	}
}

// parseBySplit is Parse as it was written before the wire path made its
// allocations matter; the reference for results and errors.
func parseBySplit(s string) (Name, error) {
	sep := Delimiter
	if strings.Contains(s, "@") && !strings.Contains(s, Delimiter) {
		sep = "@"
	}
	parts := strings.Split(s, sep)
	if len(parts) != 3 {
		return Name{}, fmt.Errorf("%w: %q", ErrBadStructure, s)
	}
	n := Name{Region: parts[0], Host: parts[1], User: parts[2]}
	if err := n.Validate(); err != nil {
		return Name{}, err
	}
	return n, nil
}

// TestParseMatchesSplit: same name or same error text as the Split-based
// parser, on every string of up to six characters over an alphabet that
// holds both delimiters, a valid token character, an invalid one and one of
// two bytes — and Tokens, on the same bytes, cuts the same three tokens where
// Parse succeeds and reports false where it does not.
func TestParseMatchesSplit(t *testing.T) {
	const alphabet = "a.@-!é"
	var walk func(prefix string)
	walk = func(prefix string) {
		got, err := Parse(prefix)
		want, wantErr := parseBySplit(prefix)
		if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Parse(%q) = %v, %v; the Split parser gives %v, %v", prefix, got, err, want, wantErr)
		}
		r, h, u, ok := Tokens([]byte(prefix))
		if cut := (Name{string(r), string(h), string(u)}); ok != (err == nil) || cut != got {
			t.Fatalf("Tokens(%q) = %v, %v; Parse gives %v, %v", prefix, cut, ok, got, err)
		}
		if len(prefix) < 6 {
			for _, c := range alphabet {
				walk(prefix + string(c))
			}
		}
	}
	walk("")
}

func TestParseAllocs(t *testing.T) {
	for _, in := range []string{"R1.h12.u123456", "east@alpha@alice"} {
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := Parse(in); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Parse(%q): %v allocs, want 0", in, n)
		}
	}
	// Tokens and a map lookup keyed by them: nothing, however long the tokens.
	long := strings.Repeat("u", 100)
	text := []byte("R1.h12." + long)
	table := map[Name]int{{Region: "R1", Host: "h12", User: long}: 7}
	if n := testing.AllocsPerRun(1000, func() {
		r, h, u, ok := Tokens(text)
		if !ok || table[Name{Region: string(r), Host: string(h), User: string(u)}] != 7 {
			t.Fatal("registered name not found by its tokens")
		}
	}); n != 0 {
		t.Errorf("Tokens + lookup: %v allocs, want 0", n)
	}
}

func TestStringRoundTrip(t *testing.T) {
	n := Name{"west", "beta", "bob"}
	got, err := Parse(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("round trip = %v, want %v", got, n)
	}
}

// TestAppendToMatchesString: AppendTo and TextLen are String and its length
// without the string, for the zero name too.
func TestAppendToMatchesString(t *testing.T) {
	for _, n := range []Name{{"west", "beta", "bob"}, {"r", "", "u"}, {}} {
		got := n.AppendTo([]byte("x"))
		if string(got) != "x"+n.String() || n.TextLen() != len(n.String()) {
			t.Errorf("%#v: AppendTo = %q, TextLen = %d; String = %q", n, got, n.TextLen(), n.String())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on invalid input did not panic")
		}
	}()
	MustParse("nope")
}

func TestRename(t *testing.T) {
	n := MustParse("east.h1.alice")
	m := n.Rename("west", "h9")
	if m.User != "alice" || m.Region != "west" || m.Host != "h9" {
		t.Errorf("Rename = %v", m)
	}
	if n.Region != "east" {
		t.Error("Rename mutated receiver")
	}
}

func TestSubgroupStableUnderRoaming(t *testing.T) {
	// Roaming changes the host token; the sub-group must not change, or the
	// location-independent design would lose the user on every move.
	home := MustParse("east.h1.alice")
	roam := Name{Region: "east", Host: "h7", User: "alice"}
	for _, k := range []int{1, 2, 7, 64} {
		if home.Subgroup(k) != roam.Subgroup(k) {
			t.Errorf("sub-group changed under roaming for k=%d", k)
		}
	}
}

func TestSubgroupRange(t *testing.T) {
	f := func(user string, k uint8) bool {
		kk := int(k%16) + 1
		n := Name{Region: "r", Host: "h", User: user}
		g := n.Subgroup(kk)
		return g >= 0 && g < kk
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSubgroupDegenerateK(t *testing.T) {
	n := MustParse("a.b.c")
	if n.Subgroup(0) != 0 || n.Subgroup(-3) != 0 {
		t.Error("non-positive k should map to sub-group 0")
	}
}

func TestSubgroupDistributes(t *testing.T) {
	const k = 8
	counts := make([]int, k)
	for i := 0; i < 4000; i++ {
		n := Name{Region: "r", Host: "h", User: "user" + itoa(i)}
		counts[n.Subgroup(k)]++
	}
	for g, c := range counts {
		if c < 4000/k/2 || c > 4000/k*2 {
			t.Errorf("sub-group %d has %d names; distribution too skewed", g, c)
		}
	}
}

// TestSubgroupGrowsConsistently: from k to k+1 sub-groups a name either keeps
// its sub-group or moves to the new one, k, and about 1/(k+1) of the names
// move; the k+1 sub-groups are within 10 % of their mean; and Subgroup is the
// jump hash of FNV-64a over region, a zero byte and the user token.
func TestSubgroupGrowsConsistently(t *testing.T) {
	const users = 100_000
	ns := make([]Name, users)
	for i := range ns {
		ns[i] = Name{Region: "R" + itoa(i%3), Host: "h", User: "u" + itoa(i)}
	}
	for _, k := range []int{1, 2, 6, 7, 16, 63} {
		moved := 0
		counts := make([]int, k+1)
		for _, n := range ns {
			was, now := n.Subgroup(k), n.Subgroup(k+1)
			if now != was && now != k {
				t.Fatalf("%v: sub-group %d of %d became %d of %d", n, was, k, now, k+1)
			}
			if now != was {
				moved++
			}
			counts[now]++
		}
		share, want := float64(moved)/users, 1/float64(k+1)
		if share < 0.5*want || share > 1.5*want {
			t.Errorf("k=%d→%d moved %.4f of the names, want about %.4f", k, k+1, share, want)
		}
		mean := float64(users) / float64(k+1)
		for g, c := range counts {
			if float64(c) < 0.9*mean || float64(c) > 1.1*mean {
				t.Errorf("k=%d: sub-group %d holds %d names, mean %.0f", k+1, g, c, mean)
			}
		}
	}
	for _, n := range ns[:1000] {
		h := fnv.New64a()
		h.Write([]byte(n.Region + "\x00" + n.User))
		for _, k := range []int{1, 5, 64} {
			if got, want := n.Subgroup(k), jumpRef(h.Sum64(), k); got != want {
				t.Fatalf("%v: Subgroup(%d) = %d, jump hash of its key %d", n, k, got, want)
			}
		}
	}
	n := ns[42]
	if a := testing.AllocsPerRun(100, func() { _ = n.Subgroup(64) }); a != 0 {
		t.Errorf("Subgroup allocates %.1f times", a)
	}
}

// jumpRef is the jump consistent hash as Lamping and Veach print it (2014).
func jumpRef(key uint64, buckets int) int {
	b, j := int64(-1), int64(0)
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
