package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// wallClock matches the lines that differ between two runs of one seed: the
// expression `make tier2-determinism` drops before it compares.
var wallClock = regexp.MustCompile(`wall`)

// TestGoldenOutput runs one tiny point per architecture, faults off and on.
// What the run prints must equal — wall clock lines aside —
// testdata/<arch>[-faults].golden, recorded from the mailbench of the commit
// before the flags became one-point-per-run:
//
//	mailbench -arch A -users 2000 -servers 4 -seed 3 -ticks 60 [-faults] | grep -v wall
func TestGoldenOutput(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("goldens carry that platform's float sums")
	}
	for _, arch := range []string{"syntax", "roaming", "attr"} {
		for _, faults := range []bool{false, true} {
			name, args := arch, []string{"-arch", arch, "-users", "2000", "-servers", "4", "-seed", "3", "-ticks", "60"}
			if faults {
				name, args = name+"-faults", append(args, "-faults")
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				if code := run(args, &out); code != 0 {
					t.Fatalf("run(%v) = %d\n%s", args, code, out.String())
				}
				var got []string
				for _, line := range strings.SplitAfter(out.String(), "\n") {
					if !wallClock.MatchString(line) {
						got = append(got, line)
					}
				}
				want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if g := strings.Join(got, ""); g != string(want) {
					t.Errorf("output differs from testdata/%s.golden:\n%s", name, firstDiff(g, string(want)))
				}
			})
		}
	}
}

// firstDiff reports the first line where got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
