package names

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// compareTokens is every token of at most three characters over an alphabet
// that brackets the delimiter: '-' (0x2D) sorts before '.', the rest after.
func compareTokens() []string {
	var toks []string
	var walk func(prefix string)
	walk = func(prefix string) {
		if prefix != "" {
			toks = append(toks, prefix)
		}
		if len(prefix) == 3 {
			return
		}
		for _, c := range "ab-_0" {
			walk(prefix + string(c))
		}
	}
	walk("")
	return toks
}

// TestCompareMatchesString holds Compare to the order of String() over every
// name with such tokens (155³ ≈ 3.7 M names): sorting by Compare must give
// the very sequence sorting the strings gives, and each neighbour pair must
// compare strictly, both ways round. The field-wise shortcut fails here on
// the first "a-….…" versus "a.…" pair.
func TestCompareMatchesString(t *testing.T) {
	toks := compareTokens()
	if testing.Short() {
		toks = slices.DeleteFunc(toks, func(s string) bool { return len(s) > 2 })
	}
	all := make([]Name, 0, len(toks)*len(toks)*len(toks))
	for _, r := range toks {
		for _, h := range toks {
			for _, u := range toks {
				all = append(all, Name{Region: r, Host: h, User: u})
			}
		}
	}
	byString := make([]string, len(all))
	for i, n := range all {
		byString[i] = n.String()
	}
	sort.Strings(byString)
	slices.SortFunc(all, Compare)
	for i, n := range all {
		if got := n.String(); got != byString[i] {
			t.Fatalf("position %d: Compare order has %q, string order has %q", i, got, byString[i])
		}
		if Compare(n, n) != 0 {
			t.Fatalf("Compare(%v, itself) != 0", n)
		}
		if i > 0 && (Compare(all[i-1], n) != -1 || Compare(n, all[i-1]) != 1) {
			t.Fatalf("Compare(%v, %v) = %d / %d, want -1 / +1",
				all[i-1], n, Compare(all[i-1], n), Compare(n, all[i-1]))
		}
	}
}

// TestCompareAllPairs checks the sign against strings.Compare on every
// ordered pair of a smaller universe (tokens of at most two characters over
// {a, -, 0}: 12³ names, ≈ 3 M pairs) — the sort test above only ever sees the
// pairs a sort happens to probe.
func TestCompareAllPairs(t *testing.T) {
	var toks []string
	for _, tok := range compareTokens() {
		if len(tok) <= 2 && !strings.ContainsAny(tok, "b_") {
			toks = append(toks, tok)
		}
	}
	var all []Name
	var strs []string
	for _, r := range toks {
		for _, h := range toks {
			for _, u := range toks {
				n := Name{Region: r, Host: h, User: u}
				all, strs = append(all, n), append(strs, n.String())
			}
		}
	}
	for i := range all {
		for j := range all {
			if got, want := Compare(all[i], all[j]), strings.Compare(strs[i], strs[j]); got != want {
				t.Fatalf("Compare(%q, %q) = %d, want %d", strs[i], strs[j], got, want)
			}
		}
	}
}

// TestCompareDelimiterInToken: unvalidated names may carry the delimiter
// inside a token; the virtual string still decides.
func TestCompareDelimiterInToken(t *testing.T) {
	cases := [][2]Name{
		{{Region: "a.b", Host: "c", User: "d"}, {Region: "a", Host: "b.c", User: "d"}},
		{{Region: "a", Host: "b", User: "c.d"}, {Region: "a.b", Host: "c", User: "d"}},
		{{Region: "a.", Host: "", User: "x"}, {Region: "a", Host: ".", User: "x"}},
		{{Region: "", Host: "", User: ""}, {Region: "", Host: "", User: "."}},
		{{Region: "a", Host: "b", User: "c"}, {Region: "a.b.c", Host: "", User: ""}},
	}
	for _, c := range cases {
		want := strings.Compare(c[0].String(), c[1].String())
		if got := Compare(c[0], c[1]); got != want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c[0].String(), c[1].String(), got, want)
		}
		if got := Compare(c[1], c[0]); got != -want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c[1].String(), c[0].String(), got, -want)
		}
	}
}

func TestCompareAllocs(t *testing.T) {
	a := Name{Region: "R1", Host: "h12", User: "u123456"}
	b := Name{Region: "R1", Host: "h12", User: "u123457"}
	sink := 0
	if n := testing.AllocsPerRun(1000, func() { sink += Compare(a, b) + Compare(b, a) }); n != 0 {
		t.Errorf("Compare: %v allocs, want 0", n)
	}
	_ = sink
}
