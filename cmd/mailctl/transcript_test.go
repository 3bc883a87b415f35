package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/wire"
)

// TestMailctlTranscript pins what mailctl prints for one session against a
// fresh server: testdata/transcript.golden was recorded from the mailctl that
// still spoke JSON lines, so a change of framing that changes a printed byte
// fails here. Of status only the header and the server rows are kept: the
// byte counters and latency quantiles below them differ from run to run.
func TestMailctlTranscript(t *testing.T) {
	srv, err := wire.NewServerWith("127.0.0.1:0", []string{"s1", "s2", "s3"},
		wire.ServerConfig{Cluster: livenet.ClusterConfig{TermIndex: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	var got strings.Builder
	for _, step := range [][]string{
		{"register", "R1.h1.alice", "s1", "s2", "s3"},
		{"register", "R1.h2.bob", "s2", "s3", "s1"},
		{"submit", "R1.h2.bob", "R1.h1.alice", "q3", "the budget forecast is late"},
		{"query", "content=budget"},
		{"getmail", "R1.h1.alice"},
		{"getmail", "R1.h1.alice"},
		{"query", "content=budget"},
		{"crash", "s1"},
		{"recover", "s1"},
		{"status"},
	} {
		out := captureStdout(t, func() error { return run(append([]string{"-addr", addr}, step...)) })
		if step[0] == "status" {
			lines := strings.SplitAfter(out, "\n")
			out = strings.Join(lines[:min(len(lines), 4)], "") // "status vN" and three server rows
		}
		got.WriteString("$ mailctl " + strings.Join(step, " ") + "\n" + out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "transcript.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("transcript differs from testdata/transcript.golden:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns what
// it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	ferr := f()
	os.Stdout = saved
	_ = w.Close()
	out := <-read
	_ = r.Close()
	if ferr != nil {
		t.Fatalf("mailctl: %v", ferr)
	}
	return out
}
