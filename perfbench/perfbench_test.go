package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSmallPopulation runs every workload untraced and traced at a few
// hundred users: each must pass its correctness checks and report every
// metric of its mode with the right unit.
func TestSmallPopulation(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{root: root, work: t.TempDir(), users: 300, seed: 2, setupReps: 1, minSamples: 1}
	for _, mode := range []struct {
		trace bool
		specs []spec
	}{{false, endToEnd}, {true, perLayer}} {
		var out bytes.Buffer
		code, err := b.report(context.Background(), &out, "all", mode.trace)
		if err != nil || code != 0 {
			t.Fatalf("trace=%v: exit %d, err %v\n%s", mode.trace, code, err, out.String())
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var final struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metric
		}
		if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
			t.Fatalf("trace=%v: last line: %v\n%s", mode.trace, err, out.String())
		}
		if !final.Correct || final.Failed != 0 || final.Attempted < len(workloads) {
			t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s",
				mode.trace, final.Correct, final.Attempted, final.Failed, out.String())
		}
		for _, wl := range workloads {
			for _, sp := range mode.specs {
				m, ok := final.Metrics[wl+"."+sp.name]
				if !ok || m.Unit != sp.unit {
					t.Errorf("trace=%v: %s.%s = %+v, present=%v; want unit %q", mode.trace, wl, sp.name, m, ok, sp.unit)
				}
			}
		}
		if want := len(workloads) * len(mode.specs); len(final.Metrics) != want {
			t.Errorf("trace=%v: %d metrics, want %d", mode.trace, len(final.Metrics), want)
		}
	}
	if spans, _ := filepath.Glob(filepath.Join(b.work, "results", "spans-*.json")); len(spans) != len(workloads) {
		t.Errorf("spans files: %v, want one per workload", spans)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step: the same
// workloads, and the same metrics with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloads)
	}
	check := func(kind string, got []entry, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s, %s), code %s (%s, %s)", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

// TestReadmeMapping keeps README.md's per-layer table, which maps each
// per-layer metric to the end-to-end metric and workload it should move,
// in step with the code: one row per metric, with the same direction
// and the same mapping.
func TestReadmeMapping(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 7 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(strings.ReplaceAll(cells[i], "`", ""))
		}
		rows[cells[2]] = cells[1:6]
	}
	for _, sp := range perLayer {
		row, ok := rows[sp.name]
		if !ok {
			t.Errorf("README.md has no per-layer row for %s", sp.name)
			continue
		}
		if row[2] != sp.better || row[4] != sp.moves {
			t.Errorf("README.md row %s: better %q, moves %q; code: better %q, moves %q", sp.name, row[2], row[4], sp.better, sp.moves)
		}
	}
}
