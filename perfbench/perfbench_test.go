package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"leo/internal/apps"
	"leo/internal/platform"
	"leo/internal/service"
)

// The benchmark's self-test: every workload at a tiny size prints every
// metric it owes with its unit and passes its output checks, the traffic
// schedule is byte-identical for a fixed seed, and BENCHMARK.json lists
// exactly the metrics this program reports.

func TestScheduleIsByteIdenticalForASeed(t *testing.T) {
	for _, spec := range []fleetSpec{fleetSmallPlans, fleetPaperDurable} {
		render := func(seed int64) []byte {
			space := platform.Small()
			var classes []service.TrafficClass
			truths := map[string]truth{}
			for _, name := range spec.classes {
				app := apps.MustByName(name)
				tr := truth{perf: app.PerfVector(space), power: app.PowerVector(space), idle: app.IdlePower}
				truths[name] = tr
				classes = append(classes, service.TrafficClass{Name: name, PerfTruth: tr.perf, PowerTruth: tr.power})
			}
			admit, open, closed, err := fleetSchedules(seed, spec, classes, 6*time.Second, 4*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, part := range [][]service.Event{admit, open, closed, donorEvents(spec, space.N(), truths, 4)} {
				b, err := json.Marshal(part)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(b)
			}
			for _, conns := range [][][]*call{buildCalls(admit, 2), buildCalls(open, 2), buildCalls(closed, 2)} {
				for _, calls := range conns {
					for _, c := range calls {
						buf.WriteString(c.method + " " + c.url + " ")
						buf.Write(c.body)
					}
				}
			}
			return buf.Bytes()
		}
		a, b := render(7), render(7)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two schedules for seed 7 differ", spec.name)
		}
		if bytes.Equal(a, render(8)) {
			t.Fatalf("%s: seeds 7 and 8 give the same schedule", spec.name)
		}
	}
}

func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(set.got) != len(set.want) {
			t.Fatalf("%s lists %d metrics, the program reports %d", set.name, len(set.got), len(set.want))
		}
		for i, d := range set.want {
			g := set.got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %s/%s/%s, program reports %s/%s/%s", set.name, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program implements %v", names, workloadNames())
	}
}

func TestEveryWorkloadAtTinySize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds leo-runtime and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "leo-runtime")
	build := exec.Command("go", "build", "-o", bin, "leo/cmd/leo-runtime")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building leo-runtime: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 2, trace: trace, tiny: true, workDir: dir, server: bin}
			res, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			line, err := render(o, res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: output checks failed: %s", name, trace, line)
			}
			var back map[string]any
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Fatalf("%s trace=%v: result line %s is not the four-key object", name, trace, line)
			}
		}
	}
}
