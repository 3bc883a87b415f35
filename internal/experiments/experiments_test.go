package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// allResults runs every experiment once for the tests that read them all:
// E11 alone drives two 20 000-user runs.
var allResults = sync.OnceValue(All)

// cell parses a table cell as float.
func cell(t *testing.T, rows [][]string, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(rows[r][c], 64)
	if err != nil {
		t.Fatalf("cell[%d][%d] = %q not a number: %v", r, c, rows[r][c], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"figure1", "table1", "table2", "table3", "figure2",
		"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	if _, ok := Run("table1"); !ok {
		t.Error("Run(table1) not found")
	}
	if _, ok := Run("nope"); ok {
		t.Error("Run(nope) found")
	}
}

func TestFigure1(t *testing.T) {
	r := Figure1()
	if len(r.Table.Rows()) != 9 {
		t.Errorf("figure1 rows = %d, want 9", len(r.Table.Rows()))
	}
	if !strings.Contains(r.Text, "graph \"figure1\"") {
		t.Error("missing DOT output")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r := Table1()
	rows := r.Table.Rows()
	// Paper's Table 1: H1→S1:50, H2→S2:60, H3→S1:50, H4→S2:50, H5→S2:40,
	// H6→S3:20, then totals 100/150/20.
	want := [][3]string{
		{"H1", "S1", "50"}, {"H2", "S2", "60"}, {"H3", "S1", "50"},
		{"H4", "S2", "50"}, {"H5", "S2", "40"}, {"H6", "S3", "20"},
		{"total", "S1", "100"}, {"total", "S2", "150"}, {"total", "S3", "20"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i, w := range want {
		for j := 0; j < 3; j++ {
			if rows[i][j] != w[j] {
				t.Errorf("row %d = %v, want %v", i, rows[i], w)
			}
		}
	}
}

func TestTable2Invariants(t *testing.T) {
	r := Table2()
	rows := r.Table.Rows()
	total := 0.0
	for _, row := range rows {
		if row[0] == "total" {
			v, _ := strconv.ParseFloat(row[2], 64)
			total += v
			if v > 100 {
				t.Errorf("server %s still over capacity: %v", row[1], v)
			}
			if v >= 99 {
				t.Errorf("server %s at/above saturation: %v", row[1], v)
			}
		}
	}
	if total != 270 {
		t.Errorf("total assigned = %v, want 270", total)
	}
	joined := strings.Join(r.Notes, "\n")
	if !strings.Contains(joined, "overloaded: 0") {
		t.Errorf("notes lack overload check: %v", r.Notes)
	}
}

func TestTable3Invariants(t *testing.T) {
	r := Table3()
	joined := strings.Join(r.Notes, "\n")
	if !strings.Contains(joined, "initial loads: S1=100 S2=100 S3=20") {
		t.Errorf("table 3 initial loads wrong: %v", r.Notes)
	}
	if !strings.Contains(joined, "overloaded servers: 0") {
		t.Errorf("table 3 still overloaded: %v", r.Notes)
	}
}

func TestFigure2(t *testing.T) {
	r := Figure2()
	if len(r.Table.Rows()) != 3 {
		t.Errorf("figure2 regions = %d, want 3", len(r.Table.Rows()))
	}
	if !strings.Contains(r.Text, "style=bold") {
		t.Error("figure2 DOT does not highlight the tree")
	}
	joined := strings.Join(r.Notes, "\n")
	if !strings.Contains(joined, "combined tree: 9 edges over 10 nodes") {
		t.Errorf("figure2 notes: %v", r.Notes)
	}
}

func TestE1Shape(t *testing.T) {
	r := E1PollsPerRetrieval()
	rows := r.Table.Rows()
	if len(rows) != 5 {
		t.Fatalf("e1 rows = %d", len(rows))
	}
	// Failure-free: GetMail ≈ 1 poll, poll-all = 3.
	gm0 := cell(t, rows, 0, 1)
	pa0 := cell(t, rows, 0, 2)
	if gm0 > 1.1 {
		t.Errorf("failure-free GetMail polls = %v, want ≈1", gm0)
	}
	if pa0 < 2.9 {
		t.Errorf("failure-free poll-all polls = %v, want 3", pa0)
	}
	// GetMail stays below poll-all at every failure rate.
	for i := range rows {
		if gm, pa := cell(t, rows, i, 1), cell(t, rows, i, 2); gm >= pa {
			t.Errorf("row %d: GetMail %v not below poll-all %v", i, gm, pa)
		}
	}
}

func TestE2NoLoss(t *testing.T) {
	r := E2NoLoss()
	for i, row := range r.Table.Rows() {
		if row[3] != "0" {
			t.Errorf("seed row %d lost messages: %v", i, row)
		}
	}
}

func TestE3Shape(t *testing.T) {
	r := E3BalancingConvergence()
	for i, row := range r.Table.Rows() {
		near := cell(t, r.Table.Rows(), i, 1)
		bal := cell(t, r.Table.Rows(), i, 2)
		if bal >= near {
			t.Errorf("row %d (%s): balanced cost %v not below nearest %v", i, row[0], bal, near)
		}
		moves := cell(t, r.Table.Rows(), i, 7)
		batch := cell(t, r.Table.Rows(), i, 8)
		if batch >= moves {
			t.Errorf("row %d: batch moves %v not fewer than %v", i, batch, moves)
		}
	}
}

func TestE4Shape(t *testing.T) {
	r := E4BroadcastCost()
	rows := r.Table.Rows()
	prev := 0.0
	for i := range rows {
		ratio := cell(t, rows, i, 4)
		if ratio <= 1 {
			t.Errorf("row %d: flood/tree ratio %v not > 1", i, ratio)
		}
		if i > 0 && ratio < prev*0.5 {
			t.Errorf("ratio collapsed at row %d: %v after %v", i, ratio, prev)
		}
		prev = ratio
	}
}

func TestE5Shape(t *testing.T) {
	r := E5GHSCorrectness()
	for i, row := range r.Table.Rows() {
		if row[3] != row[4] {
			t.Errorf("row %d: GHS weight %s != MST %s", i, row[4], row[3])
		}
		msgs := cell(t, r.Table.Rows(), i, 5)
		bound := cell(t, r.Table.Rows(), i, 6)
		if msgs > bound {
			t.Errorf("row %d: messages %v above bound %v", i, msgs, bound)
		}
	}
}

func TestE6Shape(t *testing.T) {
	r := E6ConvergecastFailures()
	rows := r.Table.Rows()
	if rows[0][1] != "10" {
		t.Errorf("failure-free run reached %s nodes, want 10", rows[0][1])
	}
	if rows[0][3] != "[]" {
		t.Errorf("failure-free unavailable = %s", rows[0][3])
	}
	// Crashing node 13 cuts off region C.
	if reached := cell(t, rows, 1, 1); reached >= 10 {
		t.Errorf("crash scenario reached %v nodes", reached)
	}
	if !strings.Contains(rows[1][3], "13") {
		t.Errorf("crashed node not marked: %s", rows[1][3])
	}
}

func TestE7Shape(t *testing.T) {
	r := E7RoamingOverhead()
	rows := r.Table.Rows()
	if c := cell(t, rows, 0, 1); c != 0 {
		t.Errorf("home consultations = %v, want 0", c)
	}
	homeMsgs := cell(t, rows, 0, 3)
	roamMsgs := cell(t, rows, 1, 3)
	if roamMsgs <= homeMsgs {
		t.Errorf("roaming traffic %v not above home traffic %v", roamMsgs, homeMsgs)
	}
}

func TestE8Shape(t *testing.T) {
	r := E8MigrationOverhead()
	rows := r.Table.Rows()
	if rows[0][1] != "1" || rows[1][1] != "0" {
		t.Errorf("renames: %v / %v", rows[0], rows[1])
	}
	if rows[0][3] != "5" || rows[1][3] != "5" {
		t.Errorf("follow-up delivery incomplete: %v / %v", rows[0], rows[1])
	}
	if redirected := cell(t, rows, 0, 2); redirected != 5 {
		t.Errorf("redirected = %v, want 5", redirected)
	}
}

func TestE9Shape(t *testing.T) {
	r := E9CostTableAccuracy()
	rows := r.Table.Rows()
	if len(rows) != 3 {
		t.Fatalf("e9 rows = %v", rows)
	}
	// Estimates must rank regions in the same order as measured costs.
	type pair struct{ est, meas float64 }
	var ps []pair
	for i := range rows {
		ps = append(ps, pair{cell(t, rows, i, 1), cell(t, rows, i, 2)})
	}
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			if (ps[i].est < ps[j].est) != (ps[i].meas < ps[j].meas) {
				t.Errorf("estimate ordering disagrees with measured: %+v vs %+v", ps[i], ps[j])
			}
		}
	}
}

func TestE10Shape(t *testing.T) {
	r := E10AttributeSelectivity()
	rows := r.Table.Rows()
	if got := rows[0][1]; got != "1" {
		t.Errorf("fuzzy lookup matched %s users, want 1", got)
	}
	for i := range rows {
		tree := cell(t, rows, i, 3)
		flood := cell(t, rows, i, 4)
		if tree >= flood {
			t.Errorf("row %d: tree cost %v not below flood %v", i, tree, flood)
		}
	}
}

func TestE11Shape(t *testing.T) {
	var r Result
	for _, x := range allResults() {
		if x.ID == "e11" {
			r = x
		}
	}
	if r.Table == nil {
		t.Fatal("All returned no e11 result")
	}
	rows := r.Table.Rows()
	if rows[0][1] != "1" || rows[0][2] != "1" {
		t.Errorf("delivered rates: %v", rows[0])
	}
	// §3.1.2c: ≈ 1 poll per retrieval; §3.2's GetMail polls the whole list.
	if polls := cell(t, rows, 1, 1); polls > 1.3 {
		t.Errorf("syntax-directed polls per retrieval = %v, above 1.3", polls)
	}
	if polls := cell(t, rows, 1, 2); polls != 2 {
		t.Errorf("location-independent polls per retrieval = %v, want the list length 2", polls)
	}
	if s, l := cell(t, rows, 2, 1), cell(t, rows, 2, 2); s >= l {
		t.Errorf("syntax-directed traffic %v not below location-independent %v", s, l)
	}
	if rows[3][1] != "1" || rows[3][2] != "0" {
		t.Errorf("renames row: %v", rows[3])
	}
	for _, n := range r.Notes {
		if strings.HasPrefix(n, "WARNING") {
			t.Error(n)
		}
	}
	if !strings.Contains(r.Text, "§4 criteria") {
		t.Error("missing rendered reports")
	}
}

// TestE11NoSpuriousRetries: no server of E11 fails, and every ack timer
// covers its route's round trip, so neither design retries a copy or
// suppresses a duplicate deposit.
func TestE11NoSpuriousRetries(t *testing.T) {
	var text string
	for _, x := range allResults() {
		if x.ID == "e11" {
			text = x.Text
		}
	}
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "retries per message") || strings.Contains(line, "duplicates per message") {
			rows++
			if f := strings.Fields(line); f[len(f)-1] != "0" {
				t.Errorf("E11: %s", line)
			}
		}
	}
	if rows != 4 {
		t.Errorf("E11 rendered %d retries and duplicates rows, want 2 per design", rows)
	}
}

func TestE12Shape(t *testing.T) {
	r := E12AuthorityListLength()
	rows := r.Table.Rows()
	if len(rows) != 4 {
		t.Fatalf("e12 rows = %v", rows)
	}
	// Availability is monotone non-decreasing in list length and every
	// accepted message arrives.
	prev := -1.0
	for i := range rows {
		avail := cell(t, rows, i, 1)
		if avail < prev-1e-9 {
			t.Errorf("availability not monotone at row %d: %v after %v", i, avail, prev)
		}
		prev = avail
		if rr := cell(t, rows, i, 2); rr != 1 {
			t.Errorf("row %d: received/sent = %v, want 1", i, rr)
		}
	}
	// A single-server list must be noticeably less available than the full
	// list under p=0.25 churn.
	if one, four := cell(t, rows, 0, 1), cell(t, rows, 3, 1); one >= four {
		t.Errorf("list length 1 availability %v not below length 4 %v", one, four)
	}
}

func TestE13Shape(t *testing.T) {
	r := E13RemoteAccess()
	rows := r.Table.Rows()
	if len(rows) != 6 {
		t.Fatalf("e13 rows = %v", rows)
	}
	// Cumulative remote cost is strictly increasing, and the option flips
	// from remote access to migration exactly once.
	prev := 0.0
	flips := 0
	last := ""
	for i, row := range rows {
		cum := cell(t, rows, i, 1)
		if cum <= prev {
			t.Errorf("row %d: cumulative cost %v not increasing", i, cum)
		}
		prev = cum
		if row[2] != last {
			if last != "" {
				flips++
			}
			last = row[2]
		}
	}
	if flips != 1 {
		t.Errorf("option flipped %d times, want exactly 1 crossover", flips)
	}
	if rows[0][2] != "remote access" {
		t.Errorf("first row option = %q, want remote access", rows[0][2])
	}
	if rows[len(rows)-1][2] != "migrate (rename)" {
		t.Errorf("last row option = %q, want migrate", rows[len(rows)-1][2])
	}
}

func TestE14Shape(t *testing.T) {
	r := E14ConnectionSetup()
	rows := r.Table.Rows()
	if len(rows) != 4 {
		t.Fatalf("e14 rows = %v", rows)
	}
	// Local push cost is flat across connection rates; name-server cost
	// grows with connections. With zero connects, the name server is free.
	localFlat := rows[0][1]
	for i := range rows {
		if rows[i][1] != localFlat {
			t.Errorf("local cost not flat: %v", rows)
		}
	}
	if ns0 := cell(t, rows, 0, 2); ns0 != 0 {
		t.Errorf("name-server cost with zero connects = %v, want 0", ns0)
	}
	if rows[0][3] != "name server" {
		t.Errorf("zero connects: cheaper = %q", rows[0][3])
	}
	last := len(rows) - 1
	if rows[last][3] != "maintained lists" {
		t.Errorf("frequent connects: cheaper = %q", rows[last][3])
	}
	if a, b := cell(t, rows, 1, 2), cell(t, rows, 3, 2); b <= a {
		t.Error("name-server cost did not grow with connects")
	}
}

func TestAllRunsAndRenders(t *testing.T) {
	results := allResults()
	if len(results) != len(IDs()) {
		t.Fatalf("All returned %d results", len(results))
	}
	for _, r := range results {
		out := r.Render()
		if !strings.Contains(out, r.ID) || len(out) < 40 {
			t.Errorf("render of %s too small:\n%s", r.ID, out)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Table2().Table.Render()
	b := Table2().Table.Render()
	if a != b {
		t.Error("Table2 not deterministic")
	}
	ra := E1PollsPerRetrieval().Table.Render()
	rb := E1PollsPerRetrieval().Table.Render()
	if ra != rb {
		t.Error("E1 not deterministic")
	}
}
