package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"serve", "steady PEP/PDP decision traffic over HTTP and in process; nothing learns, so learning-side changes must not move it"},
	{"adapt", "the Fig. 2 control loop: context changes and feedback drive ASG learning, PReP regeneration, PCP and engine compile"},
	{"learn", "offline GPM construction: ASG tasks and application learners on large example sets, no AMS and no engine"},
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports each of them for its own unit of work:
//
//	              serve                        adapt                        learn
//	p50_us        /decide round trip, closed   trigger to first decision    learner call
//	              loop on one connection       on the new generation (PAdaP)
//	cpu_us_per_op agenpd CPU per request,      benchmark CPU per trigger    CPU per task
//	              same closed loop
//	ops_per_s     AMS.Enforce calls/s in the   triggers/s (closed loop)     tasks/s
//	              fastest block
//	setup_s       agenpd start to ready        AMS build + first PReP       task preparation
//
// Enforce is timed in blocks of a few milliseconds, and its throughput
// is the fastest block's: on a shared host the speed of the CPU drifts
// by a fifth from minute to minute, and the fastest block is the one
// other tenants disturbed least. Tails (p90, p99) and the open-loop
// latencies are reported on the report line by name: their run-to-run
// spread is wider than any bound a gate could hold.
var endToEnd = []metricDef{
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics. A workload that does not run a
// layer reports 0 for it.
var perLayer = []metricDef{
	// serve: agenpd, transport, engine, obs, agenp PIP.
	{Name: "agenpd.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us", Unit: "us", Better: "lower"},
	{Name: "serve.generator_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "engine.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.decide_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.decisions_per_request", Unit: "count", Better: "lower"},
	{Name: "obs.recorder_records", Unit: "count", Better: "lower"},
	{Name: "agenp.context_key_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.enforce_unattributed_ns", Unit: "ns", Better: "lower"},
	// adapt: learning side (core, asglearn, ilasp, asp).
	{Name: "core.evolve_ms", Unit: "ms", Better: "lower"},
	{Name: "adapt.failed_search_ms", Unit: "ms", Better: "lower"},
	{Name: "ilasp.checks_per_learn", Unit: "count", Better: "lower"},
	{Name: "ilasp.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ilasp.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "asp.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "asglearn.unattributed_ms", Unit: "ms", Better: "lower"},
	// adapt: regeneration side (aspcheck, asg/cfg, PCP, engine).
	{Name: "aspcheck.lint_ms", Unit: "ms", Better: "lower"},
	{Name: "core.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "agenp.pcp_filter_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.first_decide_us", Unit: "us", Better: "lower"},
	{Name: "adapt.unattributed_ms", Unit: "ms", Better: "lower"},
	// learn: ilasp and asp.
	{Name: "ilasp.search_ms", Unit: "ms", Better: "lower"},
	{Name: "ilasp.checks_per_task", Unit: "count", Better: "lower"},
	{Name: "ilasp.sig_collapsed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "asp.candidates_scanned_per_task", Unit: "count", Better: "lower"},
	{Name: "learn.score_ms", Unit: "ms", Better: "lower"},
	{Name: "learn.unattributed_ms", Unit: "ms", Better: "lower"},
	// adapt and learn.
	{Name: "ilasp.worker_utilisation", Unit: "ratio", Better: "higher"},
	{Name: "asp.ground_ms", Unit: "ms", Better: "lower"},
	{Name: "asp.solve_ms", Unit: "ms", Better: "lower"},
	// every workload: traced per-op time over untraced, minus one.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill
// in the layers it runs.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// description is BENCHMARK.json.
type description struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const runSeconds = 30

func writeDescription(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(description{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	})
}

// hostShape identifies the machine a result was measured on. Results
// are only comparable between identical shapes.
type hostShape struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func currentHost() hostShape {
	return hostShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// savedRun is one run's output as saved from standard output.
type savedRun struct {
	report reportLine
	result resultLine
}

func readSaved(path string) (*savedRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var run savedRun
	var haveReport, haveResult bool
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rep map[string]reportLine
		if json.Unmarshal([]byte(line), &rep) == nil {
			if r, ok := rep["perfbench"]; ok {
				run.report, haveReport = r, true
				continue
			}
		}
		var res resultLine
		if json.Unmarshal([]byte(line), &res) == nil && res.Metrics != nil {
			run.result, haveResult = res, true
		}
	}
	if !haveReport || !haveResult {
		return nil, fmt.Errorf("%s: no perfbench report and result lines", path)
	}
	return &run, nil
}

// compareFiles prints new/old for every shared metric of two saved runs
// of the same workload and mode. It fails when the host shapes differ.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	a, err := readSaved(oldPath)
	if err != nil {
		return err
	}
	b, err := readSaved(newPath)
	if err != nil {
		return err
	}
	if a.report.Host != b.report.Host {
		return fmt.Errorf("host shapes differ: %+v vs %+v", a.report.Host, b.report.Host)
	}
	if a.report.Workload != b.report.Workload || a.report.Trace != b.report.Trace {
		return fmt.Errorf("runs differ in workload or mode: %s/trace=%v vs %s/trace=%v",
			a.report.Workload, a.report.Trace, b.report.Workload, b.report.Trace)
	}
	names := make([]string, 0, len(a.result.Metrics))
	for name := range a.result.Metrics {
		if _, ok := b.result.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		old, cur := a.result.Metrics[name], b.result.Metrics[name]
		ratio := 0.0
		if old.Value != 0 {
			ratio = cur.Value / old.Value
		}
		fmt.Fprintf(w, "%-36s %14.4f -> %14.4f %-6s x%.3f\n", name, old.Value, cur.Value, cur.Unit, ratio)
	}
	return nil
}
