package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening returns by what share of old the metric got worse (negative:
// it got better).
func worsening(d metricDef, old, new float64) float64 {
	if old == 0 {
		if new == old {
			return 0
		}
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (old - new) / math.Abs(old)
	}
	return (new - old) / math.Abs(old)
}

// row is one workload × metric comparison.
type row struct {
	old, new float64 // each side's median over its runs
	change   float64 // share by which new is worse than old
	noise    float64 // the wider of the two sides' run-to-run spreads
	verdict  string
}

// judge compares one metric of a workload between the runs of two documents.
// Each side is its median; the noise is the distance between the quartiles
// of a side's runs as a share of their median, the wider of the two (0 when
// a side has one run: a single pair of runs cannot show its own spread).
//
// A bounded metric is worse when the median changed for the worse by more
// than the bound. When the noise is wider than the bound the runs cannot
// resolve a change of that size: the row is unresolved, unless every run of
// the new side reads better than every run of the old one.
func judge(d metricDef, olds, news []float64) row {
	r := row{old: median(olds), new: median(news)}
	r.change = worsening(d, r.old, r.new)
	if d.Rule != ruleBound {
		r.verdict = verdictOK
		if r.change > 0 {
			r.verdict = verdictWorse
		}
		return r
	}
	r.noise = math.Max(spread(olds), spread(news))
	allBetter := true
	for _, o := range olds {
		for _, n := range news {
			allBetter = allBetter && worsening(d, o, n) < 0
		}
	}
	switch {
	case r.noise > d.Bound && !allBetter:
		r.verdict = verdictUnresolved
	case r.change > d.Bound:
		r.verdict = verdictWorse
	default:
		r.verdict = verdictOK
	}
	return r
}

// valuesOf returns what the document's untraced runs of a workload
// reported for a metric.
func valuesOf(doc document, workload, metric string) []float64 {
	var out []float64
	for _, r := range doc.Results {
		if v, ok := r.Metrics[metric]; ok && !r.Trace && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareDocs prints one row per workload × end-to-end metric and returns
// how many rows are worse and how many unresolved.
func compareDocs(oldDoc, newDoc document, w *tabwriter.Writer) (worse, unresolved int) {
	fmt.Fprintln(w, "workload\tmetric\told\tnew\tunit\truns\tchange\tbound\tnoise\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			olds, news := valuesOf(oldDoc, wl.Name, d.Name), valuesOf(newDoc, wl.Name, d.Name)
			if len(olds) == 0 || len(news) == 0 {
				continue
			}
			r := judge(d, olds, news)
			switch r.verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			switch d.Rule {
			case ruleStep:
				bound = "no step down"
			case ruleIncrease:
				bound = "no increase"
			}
			fmt.Fprintf(w, "%s\t%s\t%.6g\t%.6g\t%s\t%d/%d\t%+.1f%%\t%s\t%.1f%%\t%s\n",
				wl.Name, d.Name, r.old, r.new, d.Unit, len(olds), len(news), 100*r.change, bound, 100*r.noise, r.verdict)
		}
	}
	return worse, unresolved
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	oldDoc, err := readDocument(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	newDoc, err := readDocument(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if oldDoc.Meta.CPU != newDoc.Meta.CPU || oldDoc.Meta.NProc != newDoc.Meta.NProc || oldDoc.Meta.Go != newDoc.Meta.Go {
		fmt.Printf("note: the documents were measured on different machines or toolchains (%s ×%d %s vs %s ×%d %s)\n",
			oldDoc.Meta.CPU, oldDoc.Meta.NProc, oldDoc.Meta.Go, newDoc.Meta.CPU, newDoc.Meta.NProc, newDoc.Meta.Go)
	}
	fmt.Printf("old: commit %s   new: commit %s\n", oldDoc.Meta.Commit, newDoc.Meta.Commit)
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	worse, unresolved := compareDocs(oldDoc, newDoc, w)
	w.Flush()
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}
