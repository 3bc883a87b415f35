package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment output")

// TestGoldenOutput pins the entire rendered experiment suite byte-for-byte:
// the reproduction's tables must not drift silently. Regenerate with
//
//	go test ./internal/experiments -run TestGolden -update
func TestGoldenOutput(t *testing.T) {
	var b strings.Builder
	for i, r := range allResults() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.Render())
	}
	got := b.String()
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if got != string(want) {
		// Report the first diverging line to keep failures readable.
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("experiment output drifted at line %d:\n got: %q\nwant: %q\n(run with -update if intentional)",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("experiment output length drifted: got %d lines, want %d", len(gl), len(wl))
	}
}
