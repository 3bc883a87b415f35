package obs

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Sum() != 0 {
		t.Error("empty summary has nonzero count or sum")
	}
	for name, v := range map[string]float64{
		"Mean": s.Mean(), "Min": s.Min(), "Max": s.Max(),
		"Quantile": s.Quantile(0.5),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty summary = %v, want NaN", name, v)
		}
	}
}

func TestSummaryStats(t *testing.T) {
	var s Summary
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Observe(v)
	}
	if s.Count() != 5 || s.Sum() != 15 {
		t.Errorf("Count/Sum = %d/%v", s.Count(), s.Sum())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := s.Quantile(-1); got != 1 {
		t.Errorf("q(-1) clamped = %v, want 1", got)
	}
	if got := s.Quantile(2); got != 5 {
		t.Errorf("q(2) clamped = %v, want 5", got)
	}
}

func TestSummaryObserveAfterSort(t *testing.T) {
	var s Summary
	s.Observe(10)
	_ = s.Min() // forces sort
	s.Observe(1)
	if s.Min() != 1 {
		t.Error("Observe after a sorted read lost ordering")
	}
}

// Property: Summary quantile output is always one of the observed samples and
// quantiles are monotone in q.
func TestSummaryQuantileProperty(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		set := make(map[float64]bool)
		for _, v := range raw {
			if math.IsNaN(v) {
				v = 0
			}
			s.Observe(v)
			set[v] = true
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := s.Quantile(qa), s.Quantile(qb)
		return set[va] && set[vb] && va <= vb
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 1: loads", "Host", "Server", "Users")
	tb.AddRow("H1", "S1", 50)
	tb.AddRow("H2", "S2", 60)
	out := tb.Render()
	if !strings.Contains(out, "Table 1: loads") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: "Server" column starts at the same offset everywhere.
	hdrIdx := strings.Index(lines[1], "Server")
	rowIdx := strings.Index(lines[3], "S1")
	if hdrIdx != rowIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hdrIdx, rowIdx, out)
	}
	if len(tb.Rows()) != 2 {
		t.Errorf("len(Rows()) = %d, want 2", len(tb.Rows()))
	}
}

func TestTableFloatsTrimmed(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(1.5)
	tb.AddRow(2.0)
	tb.AddRow(0.125)
	rows := tb.Rows()
	if rows[0][0] != "1.5" || rows[1][0] != "2" || rows[2][0] != "0.125" {
		t.Errorf("float cells = %v", rows)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", `he said "hi"`)
	tb.AddRow(1, 2)
	got := tb.CSV()
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n1,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableRowsCopy(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("orig")
	rows := tb.Rows()
	rows[0][0] = "mutated"
	if tb.Rows()[0][0] != "orig" {
		t.Error("Rows() exposed internal storage")
	}
}
