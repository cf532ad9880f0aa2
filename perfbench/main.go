// Command perfbench is userv6's end-to-end benchmark. It builds the
// userv6gen CLI from the checkout it runs in and drives it through one
// named workload as a closed loop: one client, one command at a time,
// at most two threads per command. Every output is checked, and every
// end-to-end metric is printed by name and unit. With -trace 1 it runs
// the in-process traced pass (perfbench/traced) instead and prints the
// per-layer split. Run it from the checkout's root through run.sh:
//
//	bash perfbench/run.sh --workload analyze-file-w2 --seed 1 --seconds 25 --trace 0
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics; a full record with the environment is
// also written under .bench_build/work/results. The exit code is
// non-zero when any check fails. README.md describes the workloads and
// metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env identifies where and on what a result was measured, so numbers
// from different machines or commits are not compared by accident.
type env struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS string `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Users      int    `json:"users"`
	Seconds    string `json:"seconds"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed, passed to gen -seed")
	seconds := flag.Float64("seconds", 25, "measurement time per workload")
	trace := flag.Int("trace", 0, "1 runs the traced in-process pass and reports per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "directory for binaries, inputs and results")
	flag.Parse()
	if *workload == "" || (*trace != 0 && *trace != 1) || *seconds < 0 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Stdout, *workload, *trace == 1, *work, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the named workload (or all of them) from the checkout in
// the working directory, prints the report to w and returns the exit
// code.
func run(ctx context.Context, w io.Writer, workload string, trace bool, work string, seed uint64, seconds float64) (int, error) {
	root, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "userv6gen")); err != nil {
		return 0, fmt.Errorf("run from the root of a userv6 checkout: %w", err)
	}
	if work, err = filepath.Abs(work); err != nil {
		return 0, err
	}
	b := &bench{
		root: root, work: work, users: 100_000, seed: seed,
		seconds:    time.Duration(seconds * float64(time.Second)),
		setupReps:  3,
		setupFloor: 5 * time.Second,
		setupMax:   60,
		minSamples: 3,
	}
	return b.report(ctx, w, workload, trace)
}

// report runs the selected workloads, prints each one's metrics and the
// final JSON line, and records every result with its environment.
func (b *bench) report(ctx context.Context, w io.Writer, workload string, trace bool) (int, error) {
	names := []string{workload}
	if workload == "all" {
		names = workloads
	}
	e := env{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: strings.TrimPrefix(childProcs, "GOMAXPROCS="),
		Commit: commitID(b.root), Seed: b.seed, Users: b.users, Seconds: b.seconds.String(),
	}
	fmt.Fprintf(w, "env: go=%s nproc=%d gomaxprocs=%s commit=%s seed=%d users=%d\n",
		e.Go, e.NProc, e.GOMAXPROCS, e.Commit, e.Seed, e.Users)

	var results []*result
	for _, wl := range names {
		var res *result
		var err error
		if trace {
			res, err = b.traced(ctx, wl)
		} else {
			res, err = b.endToEnd(ctx, wl)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", wl, err)
		}
		results = append(results, res)
		if err := b.record(e, res); err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "workload %s: %d runs, %d failed, records=%d output_sha256=%s\n",
			wl, res.Attempted, res.Failed, res.Records, res.OutputSHA256)
		for _, f := range res.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		if res.Spans != "" {
			fmt.Fprintf(w, "  spans: %s\n", res.Spans)
		}
		printMetrics(w, "  ", endToEnd, res.Metrics)
		printMetrics(w, "  ", perLayer, res.Metrics)
	}

	// One line, the benchmark's output contract. With every workload the
	// metric names carry the workload as a prefix, and the two analyze
	// workloads must also agree with each other byte for byte.
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	sums := map[string]string{}
	for _, res := range results {
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(results) > 1 {
				name = res.Workload + "." + name
			}
			final.Metrics[name] = m
		}
		sums[res.Workload] = res.OutputSHA256
	}
	if f, e2 := sums["analyze-file-w2"], sums["analyze-export-w1"]; len(results) > 1 && f != e2 {
		fmt.Fprintf(w, "FAILED analyze-file-w2 output %s differs from analyze-export-w1 output %s\n", f, e2)
		final.Correct = false
		final.Failed++
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !final.Correct {
		return 1, nil
	}
	return 0, nil
}

// record writes res with its environment to b.work/results.
func (b *bench) record(e env, res *result) error {
	dir := filepath.Join(b.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if res.Trace {
		mode = "trace"
	}
	raw, err := json.MarshalIndent(struct {
		Env    env     `json:"env"`
		Result *result `json:"result"`
	}{e, res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-seed%d-%d.json", res.Workload, mode, b.seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// commitID names the code under test: the git commit when the checkout
// is a repository (with "+dirty" for uncommitted changes), otherwise a
// hash over the module's Go sources.
func commitID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			id := strings.TrimSpace(string(out))
			if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
				id += "+dirty"
			}
			return id
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
