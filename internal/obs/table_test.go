package obs

import (
	"strings"
	"testing"
)

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
