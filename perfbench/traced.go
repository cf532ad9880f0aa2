package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// tracedArgs gives the traced pass the dataset shape and worker count
// of workload wl. The write-side workload continues into reading its
// own output at the CLI's two-core default, so its traced read side is
// that of analyze-file-w2.
func tracedArgs(wl string) ([]string, error) {
	switch wl {
	case "gen-file-auto", "analyze-file-w2":
		return []string{"-codec", "auto", "-shards", "0", "-workers", "2"}, nil
	case "analyze-export-w1":
		return []string{"-codec", "", "-shards", "4", "-workers", "1"}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", wl, workloads)
}

// tracedOutput is what perfbench/traced prints as its last line.
type tracedOutput struct {
	Metrics      map[string]metric `json:"metrics"`
	Failures     []string          `json:"failures"`
	Records      uint64            `json:"records"`
	OutputSHA256 string            `json:"output_sha256"`
}

// traced builds perfbench/traced and runs it once for workload wl. The
// traced pass times calls into each layer in process and writes its
// spans to b.work/results; every per-layer metric must come back with
// its unit.
func (b *bench) traced(ctx context.Context, wl string) (*result, error) {
	res := &result{Workload: wl, Trace: true, Metrics: map[string]metric{}}
	args, err := tracedArgs(wl)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.work, "run")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	results := filepath.Join(b.work, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return nil, err
	}

	bin := filepath.Join(b.work, "bin", "perfbench-traced")
	if err := b.build(ctx, "./perfbench/traced", bin); err != nil {
		return nil, fmt.Errorf("build traced pass: %w", err)
	}
	res.Spans = filepath.Join(results, fmt.Sprintf("spans-%s-seed%d-%d.json", wl, b.seed, time.Now().UnixNano()))
	args = append(args, "-users", strconv.Itoa(b.users), "-seed", strconv.FormatUint(b.seed, 10),
		"-dir", dir, "-spans", res.Spans)
	s, err := b.run(ctx, b.work, bin, args...)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}

	var out tracedOutput
	lines := bytes.Split(bytes.TrimSpace(s.stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("traced pass: parse result: %w", err)
	}
	problems := out.Failures
	for _, sp := range perLayer {
		m, ok := out.Metrics[sp.name]
		switch {
		case !ok:
			problems = append(problems, "missing metric "+sp.name)
		case m.Unit != sp.unit:
			problems = append(problems, fmt.Sprintf("metric %s has unit %q, want %q", sp.name, m.Unit, sp.unit))
		default:
			res.Metrics[sp.name] = m
		}
	}
	res.Correct = res.check("traced pass", problems...)
	res.Records, res.OutputSHA256 = out.Records, out.OutputSHA256
	return res, nil
}
