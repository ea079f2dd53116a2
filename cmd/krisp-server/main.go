// Command krisp-server runs one inference-serving scenario on the
// simulated GPU stack and reports throughput, tail latency, and energy.
//
// Usage:
//
//	krisp-server -model squeezenet -workers 4 -policy krisp-i
//	krisp-server -model albert,vgg19 -policy model-right-size
//	krisp-server -model resnet152 -workers 2 -policy krisp-i -trace trace.csv
//	krisp-server -model resnet152 -workers 2 -policy krisp-i -trace out.json
//
// A -trace path ending in .json writes a Chrome trace-event file of the
// full telemetry span timeline (load it in Perfetto or chrome://tracing);
// any other extension writes worker 0's kernel trace CSV.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/server"
	"krisp/internal/telemetry"
	"krisp/internal/trace"
)

func main() {
	var (
		modelList = flag.String("model", "squeezenet", "model name(s), comma-separated; multiple names co-locate one worker each")
		workers   = flag.Int("workers", 2, "workers per listed model")
		policy    = flag.String("policy", "krisp-i", "partitioning policy: mps-default|static-equal|model-right-size|krisp-o|krisp-i")
		batch     = flag.Int("batch", models.CalibrationBatch, "request batch size")
		seed      = flag.Int64("seed", 42, "jitter seed")
		emulate   = flag.Bool("emulate", false, "use the emulated (stream-masking) KRISP path instead of native support")
		traceOut  = flag.String("trace", "", "trace output path: .json = Chrome trace-event JSON, else kernel trace CSV")
		gpus      = flag.Int("gpus", 1, "number of devices (workers spread round-robin)")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed-loop max load)")
	)
	flag.Parse()

	kind, err := policies.ByName(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var ms []models.Model
	for _, name := range strings.Split(*modelList, ",") {
		m, ok := models.ByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown model %q; available: %v\n", name, models.Names())
			os.Exit(2)
		}
		ms = append(ms, m)
	}
	run := runFlags{models: ms, workers: *workers, batch: *batch, gpus: *gpus, rate: *rate}
	if err := run.validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var specs []server.WorkerSpec
	for _, m := range ms {
		for i := 0; i < *workers; i++ {
			specs = append(specs, server.WorkerSpec{Model: m, Batch: *batch})
		}
	}

	chromeTrace := strings.HasSuffix(*traceOut, ".json")
	var tr *trace.Trace
	var hub *telemetry.Hub
	if *traceOut != "" {
		if chromeTrace {
			hub = telemetry.NewHub(true)
		} else {
			tr = &trace.Trace{}
		}
	}

	cfg := server.Config{
		Policy:         kind,
		GPUs:           *gpus,
		Workers:        specs,
		Seed:           *seed,
		ForceEmulation: *emulate,
		Trace:          tr,
		Telemetry:      hub,
	}
	var res server.Result
	if *rate > 0 {
		open := server.RunOpenLoop(cfg, server.Arrival{RatePerSec: *rate})
		res = open.Result
		fmt.Printf("open loop:           offered %.0f req/s, completed %.0f req/s, request p95 %.1f ms\n",
			open.Offered, open.Completed, open.RequestLatency.P95()/1000)
	} else {
		res = server.Run(cfg)
	}

	fmt.Printf("policy:              %s\n", kind.Label())
	fmt.Printf("workers:             %d (batch %d)\n", len(specs), *batch)
	fmt.Printf("measurement window:  %.1f virtual ms\n", res.WindowUs/1000)
	fmt.Printf("aggregate RPS:       %.1f\n", res.RPS)
	fmt.Printf("energy/inference:    %.4f J\n", res.EnergyPerInference)
	fmt.Printf("avg busy CUs:        %.1f / 60\n", res.AvgBusyCUs)
	if res.Oversubscribed {
		fmt.Println("note: model-wise partitions oversubscribe the device")
	}
	fmt.Println()
	fmt.Printf("%-4s %-14s %9s %9s %10s %10s\n", "#", "model", "batches", "requests", "p95 ms", "mean ms")
	for i := range res.Workers {
		ws := &res.Workers[i]
		fmt.Printf("%-4d %-14s %9d %9d %10.1f %10.1f\n",
			i, ws.Model, ws.Batches, ws.Requests, ws.P95()/1000, ws.BatchLatency.Mean()/1000)
	}

	if tr != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := tr.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d kernel trace records to %s\n", tr.Len(), *traceOut)
	}
	if hub != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := hub.Trace().WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d trace events to %s (open in Perfetto)\n", hub.Trace().Len(), *traceOut)
	}
}

// runFlags is the serving run as given on the command line.
type runFlags struct {
	models               []models.Model
	workers, batch, gpus int
	rate                 float64
}

// validate rejects flags that describe no run. The server would otherwise
// panic on zero workers, a non-positive batch or an open loop over mixed
// models, run -gpus 0 on one GPU, and run a negative -rate closed-loop.
func (f runFlags) validate() error {
	for _, c := range []struct {
		flag string
		v    int
	}{{"-workers", f.workers}, {"-batch", f.batch}, {"-gpus", f.gpus}} {
		if c.v < 1 {
			return fmt.Errorf("bad %s %d: must be at least 1", c.flag, c.v)
		}
	}
	if !(f.rate >= 0) { // also rejects NaN
		return fmt.Errorf("bad -rate %v: must be >= 0", f.rate)
	}
	if f.rate > 0 {
		for _, m := range f.models[1:] {
			if m.Name != f.models[0].Name {
				return fmt.Errorf("bad -model %s,%s with -rate %v: open-loop serving takes one model", f.models[0].Name, m.Name, f.rate)
			}
		}
	}
	return nil
}
