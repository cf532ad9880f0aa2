// Command traced is the benchmark's traced pass: one in-process run of
// the whole userv6 pipeline — sim, dataset write, dataset read, core,
// and the userv6 executor — with a span recorded around every call into
// a layer's public functions. Spans live in memory and are written to
// -spans at the end; the per-layer metrics are printed as the last line
// of stdout. perfbench builds and runs it for -trace 1; end-to-end
// numbers never come from here.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"userv6"
	"userv6/internal/dataset"
	"userv6/internal/faultio"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// config is the traced pass's workload shape.
type config struct {
	users   int
	seed    uint64
	codec   string // gen -compress policy of the written dataset ("" = identity)
	shards  int    // >0: the read side uses a sharded export with this many shards
	workers int    // analyze -workers
	dir     string // scratch directory for the datasets
}

func main() {
	var cfg config
	flag.IntVar(&cfg.users, "users", 100_000, "population size")
	flag.Uint64Var(&cfg.seed, "seed", 1, "scenario seed")
	flag.StringVar(&cfg.codec, "codec", "auto", "compression policy of the written dataset (\"\" = none)")
	flag.IntVar(&cfg.shards, "shards", 0, "read a sharded export with this many shards instead of the written file")
	flag.IntVar(&cfg.workers, "workers", 2, "decode and analysis workers, as analyze -workers")
	flag.StringVar(&cfg.dir, "dir", "", "scratch directory for the datasets")
	spans := flag.String("spans", "", "write the recorded spans to this JSON file")
	flag.Parse()
	if cfg.dir == "" || *spans == "" || cfg.users <= 0 || cfg.workers <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec := newRecorder()
	out, err := tracedPass(ctx, cfg, rec)
	if err == nil {
		err = rec.write(*spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last stdout line; perfbench checks every metric in it.
type output struct {
	Metrics      map[string]metric `json:"metrics"`
	Failures     []string          `json:"failures"`
	Records      uint64            `json:"records"`
	OutputSHA256 string            `json:"output_sha256"`
}

func (o *output) set(name string, v float64, unit string) { o.Metrics[name] = metric{v, unit} }
func (o *output) seconds(name string, d time.Duration)    { o.set(name, d.Seconds(), "s") }
func (o *output) fail(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// tracedPass runs every layer once, in pipeline order.
func tracedPass(ctx context.Context, cfg config, rec *recorder) (*output, error) {
	out := &output{Metrics: map[string]metric{}, Failures: []string{}}
	root := rec.start("traced", 0)
	defer rec.end(root)

	// sim: build the world, then generate the analysis week into memory.
	from, to := simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd
	simSpan := rec.start("sim", root)
	id := rec.start("sim.build", simSpan)
	sim := userv6.NewSim(userv6.DefaultScenario(cfg.users).WithSeed(cfg.seed))
	out.seconds("sim.build_s", rec.end(id))
	var recs []telemetry.Observation
	id = rec.start("sim.generate", simSpan)
	err := sim.GenerateCtx(ctx, from, to, func(o telemetry.Observation) { recs = append(recs, o) })
	out.seconds("sim.generate_s", rec.end(id))
	rec.end(simSpan)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	simRecords := uint64(len(recs))
	simSum := fingerprint(recs)
	out.set("sim.records", float64(simRecords), "count")
	out.Records = simRecords

	// dataset write: the generated records through one Writer, as
	// `userv6gen gen` writes a single file.
	meta := dataset.Meta{Seed: cfg.seed, Users: cfg.users, FromDay: int(from), ToDay: int(to), Sample: "all", Codec: cfg.codec}
	path := filepath.Join(cfg.dir, "week.uv6")
	if err := writeDataset(rec, root, out, path, meta, recs); err != nil {
		return nil, err
	}

	// The export workload reads a sharded export of the same corpus,
	// made here the way `gen -shards` makes it; not a measured step.
	input := path
	if cfg.shards > 0 {
		input = filepath.Join(cfg.dir, "export")
		id := rec.start("prep.export", root)
		_, err := sim.ExportShardedFS(ctx, faultio.OS, input, cfg.shards, meta, nil)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("export: %w", err)
		}
	}
	runtime.GC()

	// dataset read: resolve the source, decode it with a no-op consumer,
	// then read it sequentially into memory for the core passes.
	readSpan := rec.start("dataset.read", root)
	id = rec.start("dataset.open_source", readSpan)
	src, err := dataset.OpenSource(input)
	out.seconds("dataset.open_source_s", rec.end(id))
	if err != nil {
		rec.end(readSpan)
		return nil, err
	}
	records, err := decodePass(ctx, rec, readSpan, out, src.Parts(), cfg.workers)
	if err != nil {
		rec.end(readSpan)
		return nil, err
	}
	held, err := sequentialPass(ctx, rec, readSpan, out, src.Parts(), records)
	rec.end(readSpan)
	if err != nil {
		return nil, err
	}
	if records != simRecords || uint64(len(held)) != simRecords {
		out.fail("records: sim generated %d, decode pass read %d, sequential pass read %d", simRecords, records, len(held))
	}
	if fingerprint(held) != simSum {
		out.fail("the records read back differ from the records generated")
	}

	// core over the records held in memory: each analyzer alone, then
	// the CLI's whole set through AnalyzerSet.Observe.
	countFrom := simtime.Day(0)
	if m, ok := src.Meta(); ok && m.ToDay > m.FromDay {
		countFrom = simtime.Day(m.FromDay + 1)
	}
	seqReport := observePasses(rec, root, out, held, countFrom, simRecords)
	runtime.GC()

	// userv6: the executor's plan, run with spans around every layer
	// call, then run untraced through ExecutePlan.
	tracedReport, tracedDur, err := analyzePass(ctx, rec, root, out, src, cfg.workers, countFrom, simRecords)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	execReport, err := executePass(ctx, rec, root, out, src, cfg.workers, countFrom)
	if err != nil {
		return nil, err
	}
	out.set("trace.overhead_ratio", tracedDur.Seconds()/out.Metrics["userv6.execute_s"].Value, "ratio")

	if tracedReport != execReport || seqReport != execReport {
		out.fail("analysis reports differ: traced pass, sequential Observe and ExecutePlan must print the same report")
	}
	sum := sha256.Sum256([]byte(execReport))
	out.OutputSHA256 = hex.EncodeToString(sum[:])
	return out, nil
}

// writeDataset times dataset.CreateFS, Writer.Write over every record,
// and Writer.Close, then scans the file: it must be intact and hold
// every record, and its per-codec block counts are the codec mix.
func writeDataset(rec *recorder, parent int, out *output, path string, meta dataset.Meta, recs []telemetry.Observation) error {
	writeSpan := rec.start("dataset.write", parent)
	defer rec.end(writeSpan)
	id := rec.start("dataset.create", writeSpan)
	w, err := dataset.CreateFS(faultio.OS, path, meta)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.start("dataset.write_records", writeSpan)
	for _, o := range recs {
		if err = w.Write(o); err != nil {
			break
		}
	}
	out.seconds("dataset.write_s", rec.end(id))
	if err != nil {
		w.Abort()
		return err
	}
	id = rec.start("dataset.close", writeSpan)
	err = w.Close()
	out.seconds("dataset.close_s", rec.end(id))
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	out.set("dataset.stored_bytes", float64(fi.Size()), "B")

	id = rec.start("check.scan", writeSpan)
	scan, err := dataset.Scan(path)
	rec.end(id)
	if err != nil {
		return err
	}
	if !scan.Intact() || scan.Stream.Records != uint64(len(recs)) {
		out.fail("written dataset: intact=%v with %d records, want %d", scan.Intact(), scan.Stream.Records, len(recs))
	}
	out.set("telemetry.blocks.identity", float64(scan.Stream.CodecBlocks[telemetry.CodecIdentity]), "count")
	out.set("telemetry.blocks.lz", float64(scan.Stream.CodecBlocks[telemetry.CodecLZ]), "count")
	out.set("telemetry.blocks.delta", float64(scan.Stream.CodecBlocks[telemetry.CodecDelta]), "count")
	return nil
}

// decodePass times dataset.OpenParallel plus ForEachBatch with a no-op
// consumer over every part at the workload's worker count: the decode
// cost alone. It returns the records read.
func decodePass(ctx context.Context, rec *recorder, parent int, out *output, parts []string, workers int) (uint64, error) {
	span := rec.start("dataset.decode", parent)
	var blocks, records uint64
	for _, p := range parts {
		id := rec.start("dataset.decode.part", span)
		pr, err := dataset.OpenParallel(p, dataset.ParallelOptions{Workers: workers})
		if err != nil {
			rec.end(id)
			rec.end(span)
			return 0, err
		}
		err = pr.ForEachBatch(ctx, func(b dataset.Batch) error {
			blocks++
			records += uint64(len(b.Recs))
			return nil
		})
		pr.Close()
		rec.end(id)
		if err != nil {
			rec.end(span)
			return 0, err
		}
	}
	out.seconds("dataset.decode_s", rec.end(span))
	out.set("dataset.blocks_read", float64(blocks), "count")
	out.set("dataset.records_read", float64(records), "count")
	return records, nil
}

// sequentialPass reads every part with one decode worker, copying the
// records into memory. The time ForEachBatch spends outside the
// callback is the time the consumer waited for decode.
func sequentialPass(ctx context.Context, rec *recorder, parent int, out *output, parts []string, n uint64) ([]telemetry.Observation, error) {
	span := rec.start("dataset.sequential", parent)
	held := make([]telemetry.Observation, 0, n)
	var inCallback time.Duration
	for _, p := range parts {
		pr, err := dataset.OpenParallel(p, dataset.ParallelOptions{Workers: 1})
		if err != nil {
			rec.end(span)
			return nil, err
		}
		err = pr.ForEachBatch(ctx, func(b dataset.Batch) error {
			t := time.Now()
			held = append(held, b.Recs...)
			inCallback += time.Since(t)
			return nil
		})
		pr.Close()
		if err != nil {
			rec.end(span)
			return nil, err
		}
	}
	out.seconds("dataset.consumer_wait_s", rec.end(span)-inCallback)
	return held, nil
}

// fingerprint hashes records in order, so two streams compare equal
// only when they hold the same records in the same sequence.
func fingerprint(recs []telemetry.Observation) string {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	for _, o := range recs {
		a := o.Addr.As16()
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(o.Day))
		buf = binary.LittleEndian.AppendUint64(buf, o.UserID)
		buf = append(buf, a[:]...)
		buf = append(buf, byte(o.Addr.Family()), o.Country[0], o.Country[1])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.ASN))
		buf = binary.LittleEndian.AppendUint32(buf, o.Requests)
		if o.Abusive {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
