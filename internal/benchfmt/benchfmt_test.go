package benchfmt

import "testing"

func TestMarshalStableOrder(t *testing.T) {
	d := Doc{Benchmarks: []Result{
		{Name: "B", Pkg: "z"}, {Name: "A", Pkg: "a"}, {Name: "A", Pkg: "z"},
	}}
	buf, err := d.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if d.Benchmarks[0].Pkg != "a" || d.Benchmarks[1].Name != "A" || d.Benchmarks[2].Name != "B" {
		t.Fatalf("not sorted: %+v", d.Benchmarks)
	}
	if buf[len(buf)-1] != '\n' {
		t.Fatal("missing trailing newline")
	}
}
