// Command perfbench is the repository benchmark. It runs one seeded
// workload against the AGENP reproduction, checks every output, and
// prints the workload's metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - serve: steady-state decision traffic. A prebuilt agenpd, confined
//     to one CPU, answers GET /decide from one closed-loop client on the
//     same CPU, in slices that alternate with fixed-count blocks of the
//     in-process library PEP path (AMS.Enforce); then it answers
//     open-loop traffic at a light and a heavy fixed rate.
//   - adapt: the Figure 2 control loop on a CAV AMS. Each episode is a
//     fresh AMS; each step changes the context (PReP regeneration) and
//     hands the PAdaP truthful feedback (adaptation when enough of it is
//     negative). Each trigger is timed to the first decision served by
//     the new generation. A run is a fixed number of episodes, so its
//     triggers and failures depend on the seed alone.
//   - learn: offline GPM construction. Seeded rounds of ASG learning
//     tasks and application learners, each scored on held-out items.
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run (see trace.go).
// -describe prints BENCHMARK.json; -compare refuses to compare results
// recorded on different host shapes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runDeadline bounds a whole run, set-up and agenpd build included, so
// the process always exits (and stops its children) well within three
// minutes.
const runDeadline = 170 * time.Second

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// root is the checkout the benchmark runs in (module root).
	root string
	// log receives progress lines (standard error in the command).
	log io.Writer
}

func (c config) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, "perfbench: "+format+"\n", args...)
	}
}

// result is what a workload reports.
type result struct {
	// wrong counts outputs that failed a correctness check; failed
	// counts operations that returned an error, a non-200 status, or a
	// wrong answer (wrong outputs are a subset of failed).
	attempted, failed, wrong int
	// e2e holds the end-to-end metrics (untraced run), layer the
	// per-layer metrics (traced run), both keyed by BENCHMARK.json name.
	e2e   map[string]float64
	layer map[string]float64
	// named holds the workload's own metrics under their descriptive
	// names (serve.light_p50_us, adapt.tts_learn_p50_ms, ...), with
	// units, for the report line.
	named []namedMetric
	// invalid, when set, says why the measurement cannot be trusted
	// (for example a generator that ran late).
	invalid string
}

type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) note(name string, value float64, unit string) {
	r.named = append(r.named, namedMetric{Name: name, Value: value, Unit: unit})
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reportLine precedes the result line: the run's identity, host shape
// and the workload's descriptively named metrics.
type reportLine struct {
	Workload    string        `json:"workload"`
	Seed        uint64        `json:"seed"`
	Seconds     float64       `json:"seconds"`
	Trace       bool          `json:"trace"`
	Host        hostShape     `json:"host"`
	FailedRatio float64       `json:"failed_ratio"`
	Wrong       int           `json:"wrong"`
	Named       []namedMetric `json:"named"`
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: serve, adapt or learn")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	root := fs.String("root", ".", "checkout root (the agenp module)")
	describe := fs.Bool("describe", false, "print BENCHMARK.json and exit")
	compare := fs.Bool("compare", false, "compare two saved outputs given as arguments; fails across host shapes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		if err := writeDescription(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two saved outputs")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		root:     absRoot,
		log:      stderr,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeResult(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.wrong > 0 {
		return 1
	}
	return 0
}

// runWorkload dispatches one workload. A panic inside it is turned into
// an error after the workload's deferred clean-up (agenpd shutdown) has
// run.
func runWorkload(ctx context.Context, cfg config) (res *result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("workload %s panicked: %v", cfg.workload, p)
		}
	}()
	if err := checkCheckout(cfg.root); err != nil {
		return nil, err
	}
	switch cfg.workload {
	case "serve":
		res, err = runServe(ctx, cfg)
	case "adapt":
		res, err = runAdapt(ctx, cfg)
	case "learn":
		res, err = runLearn(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve, adapt or learn)", cfg.workload)
	}
	if err == nil && ctx.Err() != nil {
		// Interrupted or out of time: whatever was measured is partial.
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// checkCheckout refuses to run outside a checkout of the module: the
// serve workload builds cmd/agenpd from source.
func checkCheckout(root string) error {
	for _, p := range []string{"go.mod", filepath.Join("cmd", "agenpd", "main.go")} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not a checkout of the agenp module: %w", root, err)
		}
	}
	return nil
}

// writeResult prints the report line and, last, the result line. The
// metric set is exactly the BENCHMARK.json list for the run's mode.
func writeResult(w io.Writer, cfg config, res *result) error {
	defs, values := endToEnd, res.e2e
	if cfg.trace {
		defs, values = perLayer, res.layer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("workload %s measured undeclared metric %s", cfg.workload, name)
		}
	}
	rep := reportLine{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Host:     currentHost(),
		Wrong:    res.wrong,
		Named:    res.named,
	}
	rep.FailedRatio = ratio(float64(res.failed), float64(res.attempted))
	for _, m := range res.named {
		fmt.Fprintf(cfg.log, "perfbench: %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	cfg.logf("%-36s %14.4f ratio (%d of %d)", "failed_ratio", rep.FailedRatio, res.failed, res.attempted)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]reportLine{"perfbench": rep}); err != nil {
		return err
	}
	if res.invalid != "" {
		return fmt.Errorf("run invalid, not reported: %s", res.invalid)
	}
	if res.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	return enc.Encode(resultLine{
		Correct:   res.wrong == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	})
}
