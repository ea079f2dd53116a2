// Command krisp-cluster runs a fleet experiment: simulated multi-GPU
// nodes behind an SLO-aware router, with gpulet placement and epoch
// autoscaling driven by a diurnal workload trace.
//
// Usage:
//
//	krisp-cluster -models squeezenet,mobilenet -policy slo-aware
//	krisp-cluster -compare -degrade 1:0:3.0
//	krisp-cluster -down 2:120 -policy least-outstanding
//	krisp-cluster -chaos gray-node -gateway
//	krisp-cluster -chaos overload-burst -tenants 4
//	krisp-cluster -journeys 100 -slo-monitors
//	krisp-cluster -chaos gray-node -flight flight.json -flight-trace flight-trace.json
//	krisp-cluster -serve :8080   (fleet metrics stay up on /metrics)
//	krisp-cluster -llm llm-small -llm-rate 300
//	krisp-cluster -llm llm-small -llm-disagg -llm-perphase -models ""
//
// Each listed model is served with a diurnal rate profile sweeping
// trough = rate/4 up to peak = rate over the run. Faults are injected
// with -degrade node:gpu:stretch (a GPU running slow for the whole run)
// and -down node:at_ms[:dur_ms] (a node crash, optionally recovering), or
// composed into fleet-scale stories with -chaos (see -chaos list). A fault
// naming a node or GPU outside the -nodes x -gpus fleet, or a negative
// stretch or time, exits with status 2, as does a fleet shape or timing
// that describes no run (-nodes, -gpus, -batch, -llm-maxseqs, -tick-us,
// -epoch-ms or -duration-ms below 1; a negative -rate or -llm-rate).
// -gateway fronts the router with the resilience layer (admission control,
// circuit breakers, hedging, retry budget) and prints its shed / hedged /
// broken-circuit summary at exit; -chaos and -tenants imply it.
// -journeys N samples every Nth request's journey for per-stage latency
// attribution; -slo-monitors runs burn-rate alerting and prints the monitor
// table at exit; -flight / -flight-trace dump the anomalous-journey ring as
// JSON or a Chrome trace (both imply -journeys 1 unless set).
//
// -llm adds an autoregressive serving workload (llm-small or llm-large)
// at -llm-rate sequences/second under continuous batching; -llm-disagg
// splits the fleet into prefill and decode replicas with KV-cache handoff
// between them, and -llm-perphase right-sizes each phase's partition
// independently (without it, disaggregated replicas all run at the shared
// phase-blind size). Prompt and output lengths draw uniformly from
// -llm-prompt / -llm-output min:max ranges. Pass -models "" to serve the
// LLM workload alone. LLM workloads bypass the gateway, so -llm cannot be
// combined with -gateway, -chaos, or -tenants.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"krisp/internal/cluster"
	"krisp/internal/cluster/gateway"
	"krisp/internal/cluster/workload"
	"krisp/internal/faults"
	"krisp/internal/httpapi"
	"krisp/internal/llm"
	"krisp/internal/models"
	"krisp/internal/reconfig"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

func main() {
	var (
		modelList  = flag.String("models", "squeezenet,mobilenet", "comma-separated model names to serve")
		batch      = flag.Int("batch", 8, "replica batch size")
		rate       = flag.Float64("rate", 5000, "peak request rate per model (req/s); the diurnal trough is rate/4")
		nodes      = flag.Int("nodes", 3, "fleet size")
		gpus       = flag.Int("gpus", 2, "GPUs per node")
		policyName = flag.String("policy", "slo-aware", "routing policy: round-robin|least-outstanding|p2c|slo-aware")
		compare    = flag.Bool("compare", false, "run every routing policy on the same trace and tabulate")
		durationMs = flag.Int("duration-ms", 300, "simulated fleet time (virtual ms)")
		epochMs    = flag.Int("epoch-ms", 50, "autoscaler replanning interval (virtual ms)")
		tickUs     = flag.Int("tick-us", 2000, "router control interval (virtual us)")
		seed       = flag.Int64("seed", 42, "seed for arrivals, jitter, and p2c sampling")
		headroom   = flag.Float64("headroom", 1.2, "autoscaler overprovisioning factor")
		degrade    = flag.String("degrade", "", "inject a slow GPU: node:gpu:stretch (e.g. 1:0:3.0)")
		down       = flag.String("down", "", "crash a node: node:at_ms[:dur_ms] (no duration = stays down)")
		realCosts  = flag.Bool("real-costs", false, "use production-scale reconfig costs (10s-class reloads) instead of costs compressed to the run's timescale")
		serve      = flag.String("serve", "", "after the run, serve the HTTP API (fleet metrics on /metrics) at this address")
		useGateway = flag.Bool("gateway", false, "front the router with the resilience gateway (admission, breakers, hedging, retry budget)")
		chaosName  = flag.String("chaos", "", "apply a named chaos scenario ('list' to enumerate); implies -gateway")
		tenants    = flag.Int("tenants", 1, "split arrivals across N equal-weight tenants (first half premium class 0, rest class 1); >1 implies -gateway")
		journeys   = flag.Int("journeys", 0, "sample every Nth request's journey for latency attribution (1 = all, 0 = off)")
		sloMon     = flag.Bool("slo-monitors", false, "run burn-rate SLO monitors and print their alert states at exit")
		flightPath = flag.String("flight", "", "dump the flight recorder (anomalous journeys) as JSON to this file")
		tracePath  = flag.String("flight-trace", "", "dump the flight recorder as a Chrome trace (Perfetto) to this file")
		llmName    = flag.String("llm", "", "add an autoregressive LLM workload: llm-small|llm-large (empty = off)")
		llmRate    = flag.Float64("llm-rate", 300, "LLM sequence arrival rate (seq/s, constant)")
		llmDisagg  = flag.Bool("llm-disagg", false, "disaggregate the LLM fleet into prefill and decode replicas with KV handoff")
		llmPhase   = flag.Bool("llm-perphase", false, "right-size prefill and decode partitions independently (vs one shared size)")
		llmSeqs    = flag.Int("llm-maxseqs", 8, "continuous-batch width per LLM replica")
		llmPrompt  = flag.String("llm-prompt", "64:192", "LLM prompt-length range min:max (tokens)")
		llmOutput  = flag.String("llm-output", "16:48", "LLM output-length range min:max (tokens)")
	)
	flag.Parse()

	if *chaosName == "list" {
		for _, s := range cluster.ChaosScenarios() {
			fmt.Printf("%-16s %s\n", s.Name, s.Description)
		}
		return
	}

	sh := shape{
		nodes: *nodes, gpus: *gpus, batch: *batch, llmSeqs: *llmSeqs,
		tickUs: *tickUs, epochMs: *epochMs, durationMs: *durationMs,
		rate: *rate, llmRate: *llmRate,
	}
	if err := sh.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var workloads []cluster.Workload
	for _, name := range strings.Split(*modelList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := models.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown model %q; available: %v\n", name, models.Names())
			os.Exit(2)
		}
		workloads = append(workloads, cluster.Workload{
			Model: m,
			Batch: *batch,
			Gen: workload.Diurnal{
				Trough: *rate / 4,
				Peak:   *rate,
				Period: sim.Duration(*durationMs) * sim.Millisecond,
			},
		})
	}
	if *llmName != "" {
		if *useGateway || *chaosName != "" || *tenants > 1 {
			fmt.Fprintln(os.Stderr, "-llm workloads bypass the gateway; drop -gateway/-chaos/-tenants")
			os.Exit(2)
		}
		lm, ok := llm.ByName(*llmName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown LLM model %q; available: llm-small, llm-large\n", *llmName)
			os.Exit(2)
		}
		pMin, pMax, err := parseRange(*llmPrompt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		oMin, oMax, err := parseRange(*llmOutput)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		workloads = append(workloads, cluster.Workload{
			Gen: workload.Constant{RatePerSec: *llmRate},
			LLM: &cluster.LLMWorkload{
				Model:   lm,
				MaxSeqs: *llmSeqs,
				Lengths: workload.LengthDist{
					PromptMin: pMin, PromptMax: pMax,
					OutputMin: oMin, OutputMax: oMax,
				},
				Disaggregate: *llmDisagg,
				PerPhase:     *llmPhase,
			},
		})
	}
	if len(workloads) == 0 {
		fmt.Fprintln(os.Stderr, "no workloads: give -models and/or -llm")
		os.Exit(2)
	}

	var nodeFaults []faults.NodeFault
	if *degrade != "" {
		n, g, s, err := parseDegrade(*degrade, *nodes, *gpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		nodeFaults = append(nodeFaults, faults.NodeFault{
			Node: n, Kind: faults.GPUDegrade, GPU: g, Stretch: s,
		})
	}
	if *down != "" {
		n, at, dur, err := parseDown(*down, *nodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		nodeFaults = append(nodeFaults, faults.NodeFault{
			Node: n, Kind: faults.NodeDown, At: at, Duration: dur,
		})
	}

	costs := reconfig.Costs{
		PartitionSetup: 2 * sim.Millisecond,
		ProcessStart:   3 * sim.Millisecond,
		ModelLoad:      10 * sim.Millisecond,
		SwapDowntime:   55 * sim.Microsecond,
	}
	if *realCosts {
		costs = reconfig.DefaultCosts()
	}

	cfg := cluster.Config{
		Nodes:       *nodes,
		GPUsPerNode: *gpus,
		Workloads:   workloads,
		Tick:        sim.Duration(*tickUs),
		Epoch:       sim.Duration(*epochMs) * sim.Millisecond,
		Duration:    sim.Duration(*durationMs) * sim.Millisecond,
		Seed:        *seed,
		Headroom:    *headroom,
		NodeFaults:  nodeFaults,
		Costs:       costs,
	}

	if *tenants > 1 || *chaosName != "" {
		*useGateway = true
	}
	if *tenants > 1 {
		var shares []workload.TenantShare
		var gts []gateway.Tenant
		for i := 0; i < *tenants; i++ {
			class := 0
			if i >= *tenants/2 {
				class = 1
			}
			shares = append(shares, workload.TenantShare{ID: i, Weight: 1})
			gts = append(gts, gateway.Tenant{ID: i, Weight: 1, Class: class})
		}
		cfg.Tenants = shares
		cfg.Gateway = &gateway.Config{Tenants: gts}
	}
	if *useGateway && cfg.Gateway == nil {
		cfg.Gateway = &gateway.Config{}
	}
	if *chaosName != "" {
		s, err := cluster.ChaosByName(*chaosName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v (try -chaos list)\n", err)
			os.Exit(2)
		}
		s.Apply(&cfg)
		fmt.Printf("chaos: %s — %s\n", s.Name, s.Description)
	}

	// Flight dumps need sampled journeys; default to full sampling when a
	// dump was requested but -journeys left off.
	if (*flightPath != "" || *tracePath != "") && *journeys == 0 {
		*journeys = 1
	}
	if *journeys > 0 || *sloMon {
		cfg.Obs = &cluster.Observability{
			SampleEvery: *journeys,
			Monitors:    *sloMon,
			FlightCap:   256,
		}
	}

	policies := []cluster.Policy{}
	if *compare {
		policies = cluster.Policies()
	} else {
		p, err := cluster.PolicyByName(*policyName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		policies = append(policies, p)
	}

	fmt.Printf("fleet: %d nodes x %d GPUs, %d models, %d ms trace, seed %d\n",
		*nodes, *gpus, len(workloads), *durationMs, *seed)
	if len(nodeFaults) > 0 {
		for _, nf := range nodeFaults {
			fmt.Printf("fault: %s node=%d gpu=%d at=%.0fms stretch=%.1f dur=%.0fms\n",
				nf.Kind, nf.Node, nf.GPU, float64(nf.At)/1000, nf.Stretch, float64(nf.Duration)/1000)
		}
	}
	fmt.Println()
	fmt.Printf("%-18s %8s %8s %8s %8s %6s %9s %9s %8s\n",
		"policy", "routed", "complete", "rejected", "sloviol", "bad", "p95(ms)", "goodput", "energy(J)")

	for i, p := range policies {
		run := cfg
		run.Policy = p
		// The last (or only) policy's run feeds the live metrics registry.
		if *serve != "" && i == len(policies)-1 {
			run.Telemetry = telemetry.DefaultHub()
		}
		f := cluster.New(run)
		res := f.Run()
		fmt.Printf("%-18s %8d %8d %8d %8d %6d %9.2f %9.0f %8.1f\n",
			p, res.Routed, res.Completed, res.Rejected, res.SLOViolations,
			res.BadRequests(), res.Latency.P95()/1000, res.GoodputRPS(), res.EnergyJ)
		if i == len(policies)-1 {
			if *llmName != "" {
				fmt.Printf("\nllm serving:     %d tokens, %d KV handoffs (%.1f ms transfer), %d preemptions\n",
					res.TokensOut, res.KVHandoffs, float64(res.KVHandoffUs)/1000, res.Preemptions)
			}
			fmt.Printf("\nplacement churn: %d migrations, %d resizes, %d drains, %d node faults\n",
				res.Migrations, res.Resizes, res.Drains, res.NodeFaults)
			fmt.Printf("reconfig bill:   process-scoped %.1f ms vs kernel-scoped %.1f ms\n",
				float64(res.ProcessScopedReload)/1000, float64(res.KernelScopedReload)/1000)
			if res.Gateway != nil {
				printGatewaySummary(res.Gateway)
			}
			if ss := f.SLOStatuses(); len(ss) > 0 {
				printSLOSummary(ss)
			}
			dumpFlight(f.FlightRecorder(), *flightPath, *tracePath)
		}
	}

	if *serve != "" {
		fmt.Printf("\nserving fleet metrics at http://%s/metrics (ctrl-c to stop)\n", *serve)
		if err := http.ListenAndServe(*serve, httpapi.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// printGatewaySummary renders the gateway's shed / hedged / broken-circuit
// outcome table.
func printGatewaySummary(gs *gateway.Stats) {
	fmt.Printf("\ngateway summary\n")
	fmt.Printf("  %-14s %8s %8s %9s %9s %7s\n",
		"verdict", "admitted", "deadline", "tenant", "overload", "queue")
	fmt.Printf("  %-14s %8d %8d %9d %9d %7d\n",
		"requests", gs.Admitted, gs.ShedDeadline, gs.ShedTenant, gs.ShedOverload, gs.ShedQueue)
	fmt.Printf("  hedged %d (won %d) · retried %d · budget-denied %d · cancelled %d\n",
		gs.Hedges, gs.HedgeWins, gs.Retries, gs.BudgetDenied, gs.Cancelled)
	fmt.Printf("  circuits broken %d · half-opened %d · re-closed %d\n",
		gs.BreakerOpens, gs.BreakerHalfOpens, gs.BreakerCloses)
	if len(gs.Tenants) > 1 {
		fmt.Printf("  %-8s %8s %8s %9s\n", "tenant", "admitted", "shed", "shed-rate")
		for _, ts := range gs.Tenants {
			total := ts.Admitted + ts.Shed
			rate := 0.0
			if total > 0 {
				rate = float64(ts.Shed) / float64(total)
			}
			fmt.Printf("  %-8d %8d %8d %8.1f%%\n", ts.ID, ts.Admitted, ts.Shed, 100*rate)
		}
	}
}

// printSLOSummary renders the burn-rate monitor states — one row per model
// with its windows' burn, bad fraction, and recent alert transitions.
func printSLOSummary(ss []telemetry.SLOStatus) {
	fmt.Printf("\nslo burn-rate monitors\n")
	fmt.Printf("  %-14s %8s %10s %10s %10s %12s\n",
		"model", "state", "burn-fast", "burn-slow", "bad", "transitions")
	for _, s := range ss {
		fmt.Printf("  %-14s %8s %10.2f %10.2f %5d/%-5d %12d\n",
			s.Name, s.State, s.BurnFast, s.BurnSlow, s.Bad, s.Total, s.Transitions)
		for _, tr := range s.History {
			fmt.Printf("    %8.0fms  %s -> %s\n", float64(tr.AtUs)/1000, tr.From, tr.To)
		}
	}
}

// dumpFlight writes the flight recorder to the requested files.
func dumpFlight(fl *telemetry.FlightRecorder, jsonPath, tracePath string) {
	write := func(path string, dump func(w io.Writer) error) {
		if path == "" {
			return
		}
		w, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer w.Close()
		if err := dump(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("flight recorder (%d journeys) written to %s\n", fl.Len(), path)
	}
	if fl == nil {
		if jsonPath != "" || tracePath != "" {
			fmt.Fprintln(os.Stderr, "no flight recording (enable -journeys)")
		}
		return
	}
	write(jsonPath, fl.WriteJSON)
	write(tracePath, fl.WriteChromeTrace)
}

// shape is the fleet's size and timing as given on the command line.
type shape struct {
	nodes, gpus, batch, llmSeqs int
	tickUs, epochMs, durationMs int
	rate, llmRate               float64
}

// validate rejects a shape that describes no run. cluster.New would
// otherwise swap a zero for its default (-nodes 0 runs 3 nodes, -tick-us 0
// runs 2 ms ticks) while the fault parsers still check against the zero,
// and a negative rate would place replicas and route nothing.
func (s shape) validate() error {
	for _, c := range []struct {
		flag string
		v    int
	}{
		{"-nodes", s.nodes}, {"-gpus", s.gpus}, {"-batch", s.batch}, {"-llm-maxseqs", s.llmSeqs},
		{"-tick-us", s.tickUs}, {"-epoch-ms", s.epochMs}, {"-duration-ms", s.durationMs},
	} {
		if c.v < 1 {
			return fmt.Errorf("bad %s %d: must be at least 1", c.flag, c.v)
		}
	}
	for _, c := range []struct {
		flag string
		v    float64
	}{{"-rate", s.rate}, {"-llm-rate", s.llmRate}} {
		if !(c.v >= 0) { // also rejects NaN
			return fmt.Errorf("bad %s %v: must be >= 0", c.flag, c.v)
		}
	}
	return nil
}

func parseRange(s string) (min, max int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q, want min:max", s)
	}
	min, e1 := strconv.Atoi(parts[0])
	max, e2 := strconv.Atoi(parts[1])
	if e1 != nil || e2 != nil || min < 1 || max < min {
		return 0, 0, fmt.Errorf("bad range %q, want 1 <= min <= max", s)
	}
	return min, max, nil
}

// parseDegrade parses -degrade node:gpu:stretch against the fleet shape:
// the node and GPU must exist and the stretch must not be negative.
func parseDegrade(s string, nodes, gpus int) (node, gpu int, stretch float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad -degrade %q, want node:gpu:stretch", s)
	}
	node, e1 := strconv.Atoi(parts[0])
	gpu, e2 := strconv.Atoi(parts[1])
	stretch, e3 := strconv.ParseFloat(parts[2], 64)
	switch {
	case e1 != nil || e2 != nil || e3 != nil:
		return 0, 0, 0, fmt.Errorf("bad -degrade %q, want node:gpu:stretch", s)
	case node < 0 || node >= nodes:
		return 0, 0, 0, fmt.Errorf("bad -degrade %q: node %d outside the %d-node fleet", s, node, nodes)
	case gpu < 0 || gpu >= gpus:
		return 0, 0, 0, fmt.Errorf("bad -degrade %q: gpu %d outside the %d GPUs per node", s, gpu, gpus)
	case stretch < 0:
		return 0, 0, 0, fmt.Errorf("bad -degrade %q: negative stretch", s)
	}
	return node, gpu, stretch, nil
}

// parseDown parses -down node:at_ms[:dur_ms] against the fleet size: the
// node must exist and neither time may be negative.
func parseDown(s string, nodes int) (node int, at sim.Time, dur sim.Duration, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad -down %q, want node:at_ms[:dur_ms]", s)
	}
	node, e1 := strconv.Atoi(parts[0])
	atMs, e2 := strconv.Atoi(parts[1])
	var durMs int
	var e3 error
	if len(parts) == 3 {
		durMs, e3 = strconv.Atoi(parts[2])
	}
	switch {
	case e1 != nil || e2 != nil || e3 != nil:
		return 0, 0, 0, fmt.Errorf("bad -down %q, want node:at_ms[:dur_ms]", s)
	case node < 0 || node >= nodes:
		return 0, 0, 0, fmt.Errorf("bad -down %q: node %d outside the %d-node fleet", s, node, nodes)
	case atMs < 0:
		return 0, 0, 0, fmt.Errorf("bad -down %q: negative at_ms", s)
	case durMs < 0:
		return 0, 0, 0, fmt.Errorf("bad -down %q: negative dur_ms", s)
	}
	return node, sim.Time(atMs) * sim.Millisecond, sim.Duration(durMs) * sim.Millisecond, nil
}
