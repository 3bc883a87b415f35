// Package benchfmt is the benchmark-document format of cmd/mailbench: a
// stable, sorted JSON schema, so the documents its capacity runs write stay
// diffable from run to run.
package benchfmt

import (
	"encoding/json"
	"os"
	"sort"
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
