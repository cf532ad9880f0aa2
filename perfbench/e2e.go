package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// workloads lists the benchmark's workloads in the order `-workload all`
// runs them. README.md says why each one is in the set.
var workloads = []string{"gen-file-auto", "analyze-file-w2", "analyze-export-w1"}

// childProcs caps every command the benchmark starts at two threads of
// Go code, the closed loop's one-client budget.
const childProcs = "GOMAXPROCS=2"

// bench holds one benchmark invocation's settings.
type bench struct {
	root       string        // checkout the CLI is built from
	work       string        // binaries, inputs, outputs, results
	users      int           // population size passed to gen -users
	seed       uint64        // workload seed passed to gen -seed
	seconds    time.Duration // measurement budget per workload
	setupReps  int           // set-ups per run, at least; setup_s is their median
	setupFloor time.Duration // repeat set-up until this much time is spent...
	setupMax   int           // ...or this many set-ups have run
	minSamples int           // measured commands per run, at least
}

// result is one workload run's outcome.
type result struct {
	Workload     string            `json:"workload"`
	Trace        bool              `json:"trace"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Failures     []string          `json:"failures,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	Records      uint64            `json:"records"`
	OutputSHA256 string            `json:"output_sha256,omitempty"`
	Spans        string            `json:"spans,omitempty"`
	// Samples holds each successful measured command's wall and CPU
	// seconds and peak RSS, and Setups each set-up's seconds; the
	// metrics are their medians.
	Samples [][3]float64 `json:"samples,omitempty"`
	Setups  []float64    `json:"setups,omitempty"`
}

// check records the outcome of one checked run: attempted always grows,
// failed grows when any of the run's problems is non-empty.
func (r *result) check(run string, problems ...string) bool {
	r.Attempted++
	var failed bool
	for _, p := range problems {
		if p != "" {
			r.Failures = append(r.Failures, run+": "+p)
			failed = true
		}
	}
	if failed {
		r.Failed++
	}
	return !failed
}

// sample is one measured child process.
type sample struct {
	wall, cpu time.Duration
	rssMB     float64
	stdout    []byte
}

// run starts one child process in dir, waits for it, and returns its
// stdout with its wall time and rusage. A non-zero exit is an error
// carrying the tail of stderr.
func (b *bench) run(ctx context.Context, dir, name string, args ...string) (sample, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), childProcs)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		tail := stderr.Bytes()
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return sample{}, fmt.Errorf("%s %v: %w: %s", filepath.Base(name), args, err, bytes.TrimSpace(tail))
	}
	s := sample{wall: wall, stdout: stdout.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return s, nil
}

func (b *bench) cliPath() string { return filepath.Join(b.work, "bin", "userv6gen") }

// build compiles one main package of the checkout into b.work/bin.
func (b *bench) build(ctx context.Context, pkg, out string) error {
	_, err := b.run(ctx, b.root, "go", "build", "-o", out, pkg)
	return err
}

// cli runs the built userv6gen once.
func (b *bench) cli(ctx context.Context, args ...string) (sample, error) {
	return b.run(ctx, b.work, b.cliPath(), args...)
}

// gen writes a fresh dataset for the benchmark's seed and population
// to out (a file, or a directory with -shards).
func (b *bench) gen(ctx context.Context, out string, extra ...string) error {
	if err := os.RemoveAll(out); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	args := append([]string{"gen", "-users", strconv.Itoa(b.users), "-seed", strconv.FormatUint(b.seed, 10)}, extra...)
	_, err := b.cli(ctx, append(args, "-o", out)...)
	return err
}

// makeInput generates what workload wl reads. The write-side workload
// reads nothing; it gets the reference file every measured gen must
// reproduce byte for byte.
func (b *bench) makeInput(ctx context.Context, wl, dir string) (string, error) {
	var in string
	var err error
	switch wl {
	case "gen-file-auto":
		in = filepath.Join(dir, "ref", "week.uv6")
		err = b.gen(ctx, in, "-compress=auto")
	case "analyze-file-w2":
		in = filepath.Join(dir, "in", "week.uv6")
		err = b.gen(ctx, in, "-compress=auto")
	case "analyze-export-w1":
		in = filepath.Join(dir, "in", "export")
		err = b.gen(ctx, in, "-shards", "4")
	default:
		return "", fmt.Errorf("unknown workload %q (want one of %v or all)", wl, workloads)
	}
	return in, err
}

// endToEnd runs workload wl untraced: set-up, a reference analysis,
// then CLI commands one at a time until the time budget is spent, each
// checked before the next starts.
func (b *bench) endToEnd(ctx context.Context, wl string) (*result, error) {
	res := &result{Workload: wl, Metrics: map[string]metric{}}
	dir := filepath.Join(b.work, "run")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up is building the CLI from the checkout plus generating the
	// workload's input. It repeats so that setup_s is a median, and a
	// cold build cache on a checkout's first run does not set it; a
	// cheap set-up repeats more often, as its relative noise is larger.
	var setups []float64
	var input string
	setupStart := time.Now()
	for i := 0; i < b.setupReps || (i < b.setupMax && time.Since(setupStart) < b.setupFloor); i++ {
		start := time.Now()
		if err := b.build(ctx, "./cmd/userv6gen", b.cliPath()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		in, err := b.makeInput(ctx, wl, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		input = in
		setups = append(setups, time.Since(start).Seconds())
	}

	var measure func(context.Context, *result) (sample, float64, bool, error)
	var err error
	if wl == "gen-file-auto" {
		measure, err = b.genSampler(res, input, dir)
	} else {
		measure, err = b.analyzeSampler(ctx, res, wl, input, dir)
	}
	if err != nil {
		return nil, err
	}

	var walls, cpus, rss, rates, stored []float64
	start := time.Now()
	for n := 0; n < b.minSamples || time.Since(start) < b.seconds; n++ {
		s, bytesPerRecord, ok, err := measure(ctx, res)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		rss = append(rss, s.rssMB)
		res.Samples = append(res.Samples, [3]float64{s.wall.Seconds(), s.cpu.Seconds(), s.rssMB})
		rates = append(rates, float64(res.Records)/s.wall.Seconds())
		stored = append(stored, bytesPerRecord)
	}
	res.Setups = setups

	set := func(name string, v float64) {
		for _, sp := range endToEnd {
			if sp.name == name {
				res.Metrics[name] = metric{Value: v, Unit: sp.unit}
			}
		}
	}
	set("wall_s", median(walls))
	set("records_per_s", median(rates))
	set("cpu_s", median(cpus))
	set("peak_rss_mb", median(rss))
	set("stored_bytes_per_record", median(stored))
	set("success_share", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	set("setup_s", median(setups))
	res.Correct = res.Failed == 0
	return res, nil
}

var verdictIntact = regexp.MustCompile(`(?m)^verdict\s+INTACT\s*$`)

// genSampler returns the gen-file-auto measurement: one compressed gen,
// then `verify` must call the file INTACT, its header must be complete,
// and its bytes must equal the reference that set-up generated
// (generation is a function of seed and population only).
func (b *bench) genSampler(res *result, ref, dir string) (func(context.Context, *result) (sample, float64, bool, error), error) {
	var err error
	if res.Records, _, err = datasetStats(ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if res.OutputSHA256, err = fileSHA256(ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	out := filepath.Join(dir, "out", "week.uv6")
	return func(ctx context.Context, res *result) (sample, float64, bool, error) {
		if err := os.RemoveAll(out); err != nil {
			return sample{}, 0, false, err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return sample{}, 0, false, err
		}
		s, err := b.cli(ctx, "gen", "-users", strconv.Itoa(b.users), "-seed", strconv.FormatUint(b.seed, 10),
			"-compress=auto", "-o", out)
		if err != nil {
			return sample{}, 0, false, ctxOr(ctx, res, err)
		}
		var problems []string
		if !bytes.HasPrefix(s.stdout, []byte("wrote dataset")) {
			problems = append(problems, fmt.Sprintf("unexpected gen output %q", firstLine(s.stdout)))
		}
		records, size, err := datasetStats(out)
		if err != nil {
			problems = append(problems, err.Error())
		} else if records == 0 {
			problems = append(problems, "the dataset holds no records")
		} else if records != res.Records {
			problems = append(problems, fmt.Sprintf("header records %d differ from the reference's %d", records, res.Records))
		}
		if v, err := b.cli(ctx, "verify", out); err != nil {
			problems = append(problems, "verify: "+err.Error())
		} else if !verdictIntact.Match(v.stdout) {
			problems = append(problems, "verify did not report INTACT")
		}
		if sum, err := fileSHA256(out); err != nil {
			problems = append(problems, err.Error())
		} else if sum != res.OutputSHA256 {
			problems = append(problems, fmt.Sprintf("output sha256 %s differs from the reference's %s", sum, res.OutputSHA256))
		}
		if !res.check("gen", problems...) {
			return sample{}, 0, false, nil
		}
		return s, float64(size) / float64(records), true, nil
	}, nil
}

var printedRecords = regexp.MustCompile(`records=(\d+)`)

// coverageLine is what `analyze -tolerant` prints after the dataset
// line: blocks analyzed, blocks present, and the records the read
// decoded, counted by the reader rather than taken from a header.
var coverageLine = regexp.MustCompile(`(?m)^tolerant read: analyzed (\d+) of (\d+) blocks \((\d+) records; (\d+) corrupt blocks, (\d+) bytes skipped\)\n\n`)

// analyzeSampler checks the workload's input, makes the reference
// output — `analyze -workers 1 -tolerant` over the compressed file of
// the same seed and population, whose decoded record count must equal
// the declared total — and returns the measurement: one analyze whose
// stdout must equal the reference byte for byte and must print the
// header or manifest record total.
func (b *bench) analyzeSampler(ctx context.Context, res *result, wl, input, dir string) (func(context.Context, *result) (sample, float64, bool, error), error) {
	total, size, err := datasetStats(input)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.Records = total
	workers := "2"
	refFile := input
	if wl == "analyze-export-w1" {
		workers = "1"
		refFile = filepath.Join(dir, "ref", "week.uv6")
		if err := b.gen(ctx, refFile, "-compress=auto"); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	checkRecords := func(out []byte) string {
		m := printedRecords.FindSubmatch(out)
		if m == nil {
			return "no records= in the output"
		}
		if n, _ := strconv.ParseUint(string(m[1]), 10, 64); n != total {
			return fmt.Sprintf("printed records=%d, but the input holds %d", n, total)
		}
		return ""
	}

	var ref []byte
	refTotal, _, err := datasetStats(refFile)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	s, err := b.cli(ctx, "analyze", "-workers", "1", "-tolerant", refFile)
	if err != nil {
		if err := ctxOr(ctx, res, err); err != nil {
			return nil, err
		}
	} else {
		var mismatch, decoded string
		if refTotal != total {
			mismatch = fmt.Sprintf("the compressed file holds %d records, the workload input %d", refTotal, total)
		}
		// The strict runs print no coverage line; with it cut out, the
		// tolerant read's report is the reference they must match.
		if loc := coverageLine.FindSubmatchIndex(s.stdout); loc == nil {
			decoded = "no tolerant-read coverage line in the output"
		} else {
			num := func(i int) uint64 {
				n, _ := strconv.ParseUint(string(s.stdout[loc[2*i]:loc[2*i+1]]), 10, 64)
				return n
			}
			if got, all, records, corrupt := num(1), num(2), num(3), num(4); got != all || corrupt != 0 || records != refTotal {
				decoded = fmt.Sprintf("the read decoded %d records from %d of %d blocks (%d corrupt), but the header declares %d records",
					records, got, all, corrupt, refTotal)
			} else {
				ref = append(append([]byte(nil), s.stdout[:loc[0]]...), s.stdout[loc[1]:]...)
			}
		}
		res.check("reference analyze -workers 1 -tolerant", checkRecords(s.stdout), mismatch, decoded)
		sum := sha256.Sum256(ref)
		res.OutputSHA256 = hex.EncodeToString(sum[:])
	}

	return func(ctx context.Context, res *result) (sample, float64, bool, error) {
		s, err := b.cli(ctx, "analyze", "-workers", workers, input)
		if err != nil {
			return sample{}, 0, false, ctxOr(ctx, res, err)
		}
		var differs string
		if ref == nil || !bytes.Equal(s.stdout, ref) {
			differs = "stdout differs from the -workers 1 reference"
		}
		if !res.check("analyze", differs, checkRecords(s.stdout)) {
			return sample{}, 0, false, nil
		}
		return s, float64(size) / float64(total), true, nil
	}, nil
}

// ctxOr returns ctx's error when the run was cancelled, and otherwise
// records err as a failed run and returns nil so measuring continues.
func ctxOr(ctx context.Context, res *result, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	res.check("run", err.Error())
	return nil
}

// datasetStats returns the record total a dataset declares — the file
// header's, or the sum over a sharded export's manifest — and its size
// on disk. It refuses a dataset whose writer did not finish.
func datasetStats(path string) (records uint64, size int64, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	if !fi.IsDir() {
		f, err := os.Open(path)
		if err != nil {
			return 0, 0, err
		}
		defer f.Close()
		// The header is one JSON object padded to a fixed 256 bytes;
		// a decoder stops at the end of the object.
		var h struct {
			Records  uint64 `json:"records"`
			Complete bool   `json:"complete"`
		}
		if err := json.NewDecoder(io.LimitReader(f, 256)).Decode(&h); err != nil {
			return 0, 0, fmt.Errorf("%s: header: %w", path, err)
		}
		if !h.Complete {
			return 0, 0, fmt.Errorf("%s: header not marked complete", path)
		}
		return h.Records, fi.Size(), nil
	}
	raw, err := os.ReadFile(filepath.Join(path, "manifest.uv6m"))
	if err != nil {
		return 0, 0, err
	}
	var man struct {
		Complete bool `json:"complete"`
		Parts    []struct {
			Name    string `json:"name"`
			Records uint64 `json:"records"`
		} `json:"parts"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return 0, 0, fmt.Errorf("%s: manifest: %w", path, err)
	}
	if !man.Complete {
		return 0, 0, fmt.Errorf("%s: manifest not marked complete", path)
	}
	for _, p := range man.Parts {
		records += p.Records
		pfi, err := os.Stat(filepath.Join(path, p.Name))
		if err != nil {
			return 0, 0, err
		}
		size += pfi.Size()
	}
	return records, size, nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b)
}
