// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation and prints, as the last line of its standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics.
//
//	perfbench --workload fleet-small-plans --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - fleet-small-plans: a real `leo-runtime -serve -size small` (n=128)
//     server without persistence, driven over HTTP by a read-heavy fleet.
//   - fleet-paper-durable: a real `leo-runtime -serve -size full` (n=1024)
//     server with a fresh -state-dir, driven by a write-heavy fleet.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from the traced layer ladder (spans recorded
// around the calls into each module) and the server's own counters.
// run.sh builds the server and this program from source and then runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// result is the one-line report the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // self-test scale: n=128 everywhere, few tenants; set only by the self-test
	workDir  string // scratch space inside the checkout
	server   string // leo-runtime binary
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "scratch directory for server state and traces")
	flag.StringVar(&o.server, "server", filepath.Join(".bench_build", "leo-runtime"), "leo-runtime binary")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	res, err := run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	line, err := render(o, res)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	fmt.Println(string(line))
}

// render checks that a result carries every metric the run owes — the
// end-to-end set untraced, the per-layer set traced — each finite and in
// its unit, and encodes it as the final output line.
func render(o options, res *result) ([]byte, error) {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(res)
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(options) (*result, error){
	"fleet-small-plans":   func(o options) (*result, error) { return runFleet(o, fleetSmallPlans) },
	"fleet-paper-durable": func(o options) (*result, error) { return runFleet(o, fleetPaperDurable) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report collects metrics by name, taking each unit from the metric table.
type report map[string]metric

func (r report) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is not defined in spec.go")
}

// logf prints a human-readable line ahead of the JSON result.
func logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
