package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// efddBin is the daemon the smoke tests drive, built once by TestMain.
var efddBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	efddBin = filepath.Join(dir, "efdd")
	if out, err := exec.Command("go", "build", "-o", efddBin, "repro/cmd/efdd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build efdd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runTiny runs one smoke-size invocation in-process.
func runTiny(t *testing.T, workload string, trace int, fault string) (code int, stdout, stderr string) {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", strconv.Itoa(trace),
		"-efdd", efddBin, "-work", t.TempDir(), "-root", "..", "-tiny"}
	if fault != "" {
		args = append(args, "-fault", fault)
	}
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", name, trace), func(t *testing.T) {
				code, out, errOut := runTiny(t, name, trace, "")
				if code != 0 {
					t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, errOut, out)
				}
				var res result
				if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
					if trace == 1 && strings.HasPrefix(d.name, "tsdb.") && !workloads[name].durable && m.Value != 0 {
						t.Errorf("%s = %v on a memory-only workload, want 0", d.name, m.Value)
					}
					if !strings.Contains(out, d.name+" ") {
						t.Errorf("no printed line for %s", d.name)
					}
				}
				if !strings.Contains(out, "# provenance {") {
					t.Errorf("no provenance line:\n%s", out)
				}
			})
		}
	}
}

func TestDroppedBatchTripsAckCheck(t *testing.T) {
	code, out, errOut := runTiny(t, "poll-json-memory", 0, faultDropBatch)
	if code == 0 || !strings.Contains(errOut, "ack accounting") {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if strings.HasPrefix(lastLine(out), "{") {
		t.Fatalf("a failed run printed a result: %s", lastLine(out))
	}
}

func TestWrongLabelTripsAccuracyCheck(t *testing.T) {
	code, out, errOut := runTiny(t, "poll-json-memory", 0, faultWrongLabel)
	if code == 0 || !strings.Contains(errOut, "online accuracy") {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if strings.HasPrefix(lastLine(out), "{") {
		t.Fatalf("a failed run printed a result: %s", lastLine(out))
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, layers.json and
// the program's metric tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)

	raw, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers struct {
		Layers []struct{ Metrics []string }
	}
	if err := json.Unmarshal(raw, &layers); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, l := range layers.Layers {
		for _, m := range l.Metrics {
			seen[m]++
		}
	}
	for _, d := range perLayer {
		if seen[d.name] != 1 {
			t.Errorf("per-layer metric %s appears %d times in layers.json", d.name, seen[d.name])
		}
		delete(seen, d.name)
	}
	for m := range seen {
		t.Errorf("layers.json names %s, which the program does not report", m)
	}
}

func TestParseExposition(t *testing.T) {
	got, err := parseExposition("# HELP x y\n# TYPE x counter\nx 3\nh_sum{route=\"/v1/jobs/{id}\"} 0.25\nh_count{route=\"/v1/jobs/{id}\"} 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if got["x"] != 3 || got[`h_sum{route="/v1/jobs/{id}"}`] != 0.25 || got[`h_count{route="/v1/jobs/{id}"}`] != 2 {
		t.Fatalf("parsed %v", got)
	}
	if _, err := parseExposition("novalue\n"); err == nil {
		t.Fatal("a line without a value parsed")
	}
}

func TestProcStatCPU(t *testing.T) {
	// Fields 14 and 15 (utime, stime) are 250 and 50 ticks.
	stat := "42 (efd d) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 8 0 100 0 0"
	if got := procStatCPU(stat); got != 3 {
		t.Fatalf("procStatCPU = %v, want 3", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}
