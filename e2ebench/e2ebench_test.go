package main

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestSpecFileCurrent requires BENCHMARK.json to be what -write-spec
// generates from the tables in spec.go.
func TestSpecFileCurrent(t *testing.T) {
	want, err := specDocument()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -write-spec ../BENCHMARK.json`")
	}
}

// TestSmoke runs every workload briefly in both modes. Every answer must
// verify with no failure at all, and each mode must print exactly the
// metrics BENCHMARK.json declares for it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives three servers")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: time.Second, trace: trace,
				workdir: t.TempDir(), setups: 1, warmup: 100 * time.Millisecond}
			res, report, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", w.Name, trace, res.Correct, res.Attempted, report)
			}
			if res.Failed != 0 {
				t.Errorf("%s trace=%v: %d failed\n%s", w.Name, trace, res.Failed, report)
			}
			declared := map[string]string{}
			if trace {
				for _, s := range perLayer {
					declared[s.Name] = s.Unit
				}
			} else {
				for _, s := range endToEnd {
					declared[s.Name] = s.Unit
				}
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for name, mv := range res.Metrics {
				if unit, ok := declared[name]; !ok || unit != mv.Unit {
					t.Errorf("%s trace=%v: metric %s (%s) is not declared as such", w.Name, trace, name, mv.Unit)
				}
			}
			if !trace {
				for _, s := range endToEnd {
					if v := res.Metrics[s.Name].Value; v <= 0 {
						t.Errorf("%s: end-to-end %s = %g, want > 0", w.Name, s.Name, v)
					}
				}
			}
		}
	}
}
