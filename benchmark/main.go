// Command benchmark is the repository's benchmark: it runs the KRISP
// simulator on four fixed workloads, checks every output, and prints each
// end-to-end metric (or, with -trace 1, each per-layer metric) by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Run it from the repository root through benchmark/run.sh, which builds
// it:
//
//	bash benchmark/run.sh --workload fleet-dense --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --compare parent.jsonl change.jsonl
//
// See benchmark/README.md for the workloads, the metrics, and how the
// baseline was recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed         = flag.Int64("seed", defaultSeed, "seed of the first run; run i uses seed+i")
		seconds      = flag.Int("seconds", 20, "length of the measurement on the reference host; sizes the run count")
		trace        = flag.Int("trace", 0, "1 runs the traced round and reports the per-layer metrics")
		outPath      = flag.String("out", "", "append each invocation's full record, as one JSON line, to this file")
		spansPath    = flag.String("spans", "", "with -trace 1, write the traced child's spans to this file as a Chrome trace")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments: parent, then change")
		child        = flag.String("child", "", "internal: run one child process described by this JSON spec")
	)
	flag.Parse()

	if *child != "" {
		os.Exit(childMain(*child))
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare parent.jsonl change.jsonl")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1")
		os.Exit(2)
	}
	base, err := loadBaseline()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var selected []*benchWorkload
	if *workloadName == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		selected = append(selected, w)
	}

	code := 0
	for _, w := range selected {
		inv := invocation{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, base: base}
		res, spans := inv.run()
		defs := endToEnd
		if inv.trace {
			defs = perLayer
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok && res.Failed == 0 {
				res.fail("%s was not measured", d.Name)
			} else if ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
				res.fail("%s is %v", d.Name, v)
				delete(res.Metrics, d.Name)
			}
		}
		printHuman(res, defs)
		if *outPath != "" {
			if err := appendRecord(*outPath, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}
		if *spansPath != "" && len(spans) > 0 {
			if err := writeSpans(*spansPath, w.name, spans); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}
		line, err := resultLine(res, defs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(line)
		if res.Failed > 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "child spec:", err)
		return 2
	}
	rep, err := runChild(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "child report:", err)
		return 1
	}
	return 0
}

func printHuman(res *outcomeReport, defs []metricDef) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer (traced round)"
	}
	fmt.Printf("%s  seed %d  %s  %d operations, %d failed  digest %s\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed, res.Digest)
	for _, p := range res.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-28s %14.6g %-10s", d.Name, v, d.Unit)
		if raw, ok := res.Raw[d.Name]; ok {
			line += fmt.Sprintf(" (unadjusted %.6g)", raw)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// resultLine renders the benchmark's final JSON line.
func resultLine(res *outcomeReport, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			metrics[d.Name] = value{v, d.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	return string(b), err
}

func appendRecord(path string, res *outcomeReport) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes spans as a Chrome-trace JSON array: one complete event
// per benchmark call, one thread per phase.
func writeSpans(path, workload string, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	tids := map[string]int{"setup": 0, "run": 1, "check": 2}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Cat: workload + "/" + s.Phase, Ph: "X", Ts: s.Start, Dur: s.Dur, Pid: 1, Tid: tids[s.Phase]}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
