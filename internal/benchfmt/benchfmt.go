// Package benchfmt is the repository's benchmark-document format: the
// stable JSON schema cmd/mailbench and cmd/benchjson write, plus the parser that
// turns `go test -bench` output into it. cmd/benchjson pipes the test
// stream through ParseStream; cmd/mailbench builds Results directly from
// its capacity runs — both emit the same document, so benchmark history
// stays diffable across PRs regardless of which tool produced it.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark: a name, the package (or tool) that produced it,
// the iteration count, and every reported metric keyed by unit.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the committed benchmark document.
type Doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Sort orders benchmarks by (pkg, name) so marshaled documents are stable.
func (d *Doc) Sort() {
	sort.Slice(d.Benchmarks, func(i, j int) bool {
		if d.Benchmarks[i].Pkg != d.Benchmarks[j].Pkg {
			return d.Benchmarks[i].Pkg < d.Benchmarks[j].Pkg
		}
		return d.Benchmarks[i].Name < d.Benchmarks[j].Name
	})
}

// Marshal renders the sorted document as indented JSON with a trailing
// newline.
func (d *Doc) Marshal() ([]byte, error) {
	d.Sort()
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// WriteFile marshals the document to path (stdout when path is empty).
func (d *Doc) WriteFile(path string) error {
	buf, err := d.Marshal()
	if err != nil {
		return err
	}
	if path == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ParseStream reads `go test -bench` output from r, echoing every line to
// echo (pass nil to discard), and collects the header fields and benchmark
// results into a document.
func ParseStream(r io.Reader, echo io.Writer) (Doc, error) {
	var d Doc
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			d.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			d.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			d.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := ParseBench(line, pkg); ok {
				d.Benchmarks = append(d.Benchmarks, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return d, err
	}
	return d, nil
}

// ParseBench parses one result line: name, iteration count, then value/unit
// pairs. Lines that don't fit (e.g. "BenchmarkX --- SKIP") are rejected.
func ParseBench(line, pkg string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{
		Name:       strings.TrimSuffix(fields[0], "-"+lastCPUSuffix(fields[0])),
		Pkg:        pkg,
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// lastCPUSuffix returns the trailing GOMAXPROCS digits of "Name-8" (empty if
// the name carries no suffix, as under -cpu 1).
func lastCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	suffix := name[i+1:]
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return ""
		}
	}
	if suffix == "" {
		return ""
	}
	return suffix
}
