package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// compareFiles reads two files of -out records, pairs the untraced records
// of each workload in file order (the caller alternates which side runs
// first), and prints one row per workload and end-to-end metric with a
// verdict: a gain needs the change to win nine tenths of all pairs and to
// move the median by more than the parent's interquartile range; a metric
// whose parent spread exceeds its bound is unresolved unless every change
// run beats every parent run.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	for _, wl := range workloads {
		ps, cs := parent[wl.name], change[wl.name]
		n := min(len(ps), len(cs))
		if n == 0 {
			continue
		}
		pf, cf := 0, 0
		for i := 0; i < n; i++ {
			pf += ps[i].Failed
			cf += cs[i].Failed
		}
		fmt.Fprintf(w, "%s: %d pairs, failed operations parent %d, change %d\n", wl.name, n, pf, cf)
		fmt.Fprintf(w, "  %-22s %-34s %-34s %8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
		for _, d := range endToEnd {
			var pv, cv []float64
			for i := 0; i < n; i++ {
				p, okp := ps[i].Metrics[d.Name]
				c, okc := cs[i].Metrics[d.Name]
				if okp && okc {
					pv, cv = append(pv, p), append(cv, c)
				}
			}
			if len(pv) == 0 {
				continue
			}
			v := judge(d, pv, cv, cf > pf)
			pq, cq := quartiles(pv), quartiles(cv)
			fmt.Fprintf(w, "  %-22s %-34s %-34s %+7.2f%% %3d/%-3d %s\n", d.Name,
				fmt.Sprintf("%.6g [%.4g, %.4g]", pq[1], pq[0], pq[2]),
				fmt.Sprintf("%.6g [%.4g, %.4g]", cq[1], cq[0], cq[2]),
				100*(cq[1]-pq[1])/pq[1], v.wins, len(pv), v.verdict)
		}
	}
	return nil
}

type verdict struct {
	wins    int
	verdict string
}

// judge applies the comparison rule to one metric's paired values.
func judge(d metricDef, pv, cv []float64, moreFailures bool) verdict {
	better := func(c, p float64) bool {
		if d.Better == "higher" {
			return c > p
		}
		return c < p
	}
	v := verdict{}
	for i := range pv {
		if better(cv[i], pv[i]) {
			v.wins++
		}
	}
	pq, cq := quartiles(pv), quartiles(cv)
	iqr := pq[2] - pq[0]
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worse := (cq[1] - pq[1]) / pq[1]
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case len(pv) < minPairs:
		v.verdict = fmt.Sprintf("unresolved: fewer than %d pairs", minPairs)
	case float64(v.wins) >= 0.9*float64(len(pv)) && better(cq[1], pq[1]) && math.Abs(cq[1]-pq[1]) > iqr:
		v.verdict = "gain"
		if moreFailures {
			v.verdict = "gain not counted: more failed operations"
		}
	case iqr/pq[1] > d.Bound && !allBetter:
		v.verdict = fmt.Sprintf("unresolved: parent spread %.1f%% exceeds bound %.0f%%", 100*iqr/pq[1], 100*d.Bound)
	case worse > d.Bound:
		v.verdict = fmt.Sprintf("regression beyond the %.0f%% bound", 100*d.Bound)
	default:
		v.verdict = "within bound"
	}
	return v
}

// readRecords loads a file of -out records, keeping untraced ones, grouped
// by workload in file order.
func readRecords(path string) (map[string][]outcomeReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]outcomeReport{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var r outcomeReport
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}
