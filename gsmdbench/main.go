// Command gsmdbench is the repository's end-to-end benchmark. It drives a
// real gsmd child over HTTP from this one process with at most nproc
// closed-loop clients, checks every answer byte-for-byte against the
// embedded session path, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash gsmdbench/run.sh --workload serve-selective --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same workload and seed run with spans recorded around every HTTP
// call in the second half of the window, followed by an in-process replay
// of the same inputs through each layer's public functions, and the result
// carries the per-layer metrics. Spans are written to
// <dir>/spans-<workload>-<seed>.json.
//
// Exit codes: 0 success, 1 hard failure (bad flags, gsmd would not start,
// a request failed in set-up), 2 a response or a layer disagreed with the
// expected answers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is one run's settings.
type config struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	gsmd    string // gsmd binary
	dir     string // work directory for state dirs and span files
}

func main() {
	name := flag.String("workload", "", "workload name: serve-selective, serve-wide or ingest-exchange")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	gsmd := flag.String("gsmd", "", "path to the gsmd binary")
	dir := flag.String("dir", "", "work directory for gsmd state and span files")
	flag.Parse()

	sp, ok := specs[*name]
	if !ok || *gsmd == "" || *dir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gsmdbench: want --workload %v, --gsmd, --dir, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(1)
	}
	cfg := config{spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, gsmd: *gsmd, dir: *dir}
	fmt.Printf("# gsmdbench %s seed=%d seconds=%g trace=%d nproc=%d go=%s gsmd_flags=%q\n",
		sp.name, cfg.seed, cfg.seconds, *trace, runtime.NumCPU(), runtime.Version(), strings.Join(gsmdArgs("ADDR_FILE", "STATE_DIR"), " "))
	fmt.Printf("# workload %s\n", sp)

	start := time.Now()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsmdbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gsmdbench: %s finished in %.1fs\n", sp.name, time.Since(start).Seconds())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsmdbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(2)
	}
}

// clients is the closed-loop client count: one per CPU, at most two, so
// the load generator never outnumbers the cores it shares with gsmd.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// run dispatches one workload.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.spec.rel.Orders > 0 {
		return runIngest(cfg)
	}
	return runServe(cfg)
}
