// Command e2ebench is the repository's end-to-end benchmark: it serves a
// field through internal/serve on a loopback listener, drives one of three
// workloads against it from this process, checks every answer, and prints
// the metrics BENCHMARK.json declares. See NOTES.md for the workloads, the
// metrics and what each should move.
//
//	go run . --workload read-mix --seed 1 --seconds 10 --trace 0
//	go run . -write-spec ../BENCHMARK.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1). A readable report goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // measured phase length
	trace    bool
	workdir  string        // scratch files (the stored index, spans)
	setups   int           // set-ups per run; setup_s is their median
	warmup   time.Duration // unrecorded drive before measuring
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// absentValue stands for a metric that does not exist on a workload (no
// updates on a read-only field, no pool counters on a stored index); the
// report on standard error names the reason.
const absentValue = -1

func main() {
	var (
		cfg       config
		seconds   float64
		trace     int
		writeSpec string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: read-mix | archive-export | live-update")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated requests")
	flag.Float64Var(&seconds, "seconds", runSeconds, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced phase and prints per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", os.TempDir(), "directory for the stored index and span files")
	flag.StringVar(&writeSpec, "write-spec", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()

	if writeSpec != "" {
		if err := writeSpecFile(writeSpec); err != nil {
			fatal(err)
		}
		return
	}
	if !knownWorkload(cfg.workload) {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.setups = 5
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; traced runs omit it
	}
	cfg.warmup = time.Second
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	res, report, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	os.Stderr.WriteString(report)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}
