package userv6

// The execute layer of the source/plan/execute analysis stack. A
// dataset.Source names the parts of one logical telemetry corpus (a
// merged file, a sharded export's manifest, a bare part list), a
// core.Plan picks the execution mode, and AnalyzeSource runs the plan:
// per part, decode workers fan out exactly as they would over a single
// file, and the analyzers' consumers persist across parts, seeing them
// one after another in manifest order. That is the stream a merge of
// the parts would write, so analyzing a manifest directly is
// byte-identical to merging it first and analyzing the merged file,
// minus the merge.

import (
	"context"
	"fmt"
	"path/filepath"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

// AnalyzeOptions configures one analysis run over a Source.
type AnalyzeOptions struct {
	// Workers is the decode pool size: <= 0 means GOMAXPROCS, 1 selects
	// the sequential reference path, anything else the fused path.
	Workers int
	// Tolerant selects the salvage read on every part: corrupt blocks
	// are skipped and the returned report says what the results
	// describe. Strict mode additionally verifies each part's declared
	// whole-file checksum (when the source carries one) before reading.
	Tolerant bool
}

// PlanSource resolves the execution plan for analyzing src with set
// under opts, without running anything — the CLI's -explain flag, and
// the first half of AnalyzeSource. The plan depends only on opts and
// the source's part count, so the error is always nil and set is
// unused; the signature matches AnalyzeSource's.
func PlanSource(src dataset.Source, set *core.AnalyzerSet, opts AnalyzeOptions) (core.Plan, error) {
	return planFor(src, opts), nil
}

func planFor(src dataset.Source, opts AnalyzeOptions) core.Plan {
	return core.NewPlan(core.PlanInput{Workers: opts.Workers, Tolerant: opts.Tolerant, Parts: len(src.Parts())})
}

// AnalyzeSource plans and runs one analysis pass over src, populating
// set's primaries. The returned report aggregates per-part read
// coverage (blocks, records, per-codec block counts) across the whole
// source; for a manifest it matches what a merge-then-analyze of the
// same parts would report. On error the fused mode leaves the
// primaries untouched (the sequential mode feeds them directly, like
// the sequential reader always has).
func AnalyzeSource(ctx context.Context, src dataset.Source, set *core.AnalyzerSet, opts AnalyzeOptions) (telemetry.SalvageReport, error) {
	return ExecutePlan(ctx, src, set, planFor(src, opts))
}

// ExecutePlan runs an already-resolved plan over src. Callers normally
// use AnalyzeSource; this entry point exists so a caller that printed
// Plan.Explain() runs exactly the plan it printed.
func ExecutePlan(ctx context.Context, src dataset.Source, set *core.AnalyzerSet, plan core.Plan) (telemetry.SalvageReport, error) {
	var zero telemetry.SalvageReport
	parts := src.Parts()
	if len(parts) == 0 {
		return zero, fmt.Errorf("userv6: source %s lists no parts", src.Kind())
	}

	// Strict mode verifies manifest-declared whole-file checksums up
	// front — the same per-part integrity gate a merge applies — so a
	// swapped or damaged part fails fast with its name, not mid-analysis
	// with a block error.
	if !plan.Tolerant {
		for i, path := range parts {
			want, ok := src.Expected(i)
			if !ok || want.CRC32C == "" {
				continue
			}
			got, err := dataset.FileCRC32C(path)
			if err != nil {
				return zero, err
			}
			if got != want.CRC32C {
				return zero, fmt.Errorf("userv6: part %s: file checksum %s does not match manifest %s",
					filepath.Base(path), got, want.CRC32C)
			}
		}
	}

	// agg accumulates every part's read coverage; finishPart also
	// cross-checks the part's observed frame codecs against its declared
	// policy, exactly like a merge does (tolerant admits the mismatch,
	// strict refuses).
	var agg telemetry.SalvageReport
	finishPart := func(i int, pr *dataset.ParallelReader) error {
		rep, ok := pr.Coverage()
		if !ok {
			return fmt.Errorf("userv6: part %s: read completed without coverage", filepath.Base(parts[i]))
		}
		if want, declared := src.Expected(i); declared && !plan.Tolerant {
			if err := dataset.CheckPartCodecs(want.Codec, rep.Codecs); err != nil {
				return fmt.Errorf("userv6: part %s: %w", filepath.Base(parts[i]), err)
			}
		}
		agg.Add(rep)
		return nil
	}
	// readParts streams every part, in order, through fn, then checks
	// its coverage.
	readParts := func(fn func(dataset.Batch) error) error {
		for i, path := range parts {
			pr, err := dataset.OpenParallel(path, dataset.ParallelOptions{
				Workers: plan.Workers, Tolerant: plan.Tolerant,
			})
			if err != nil {
				return err
			}
			err = pr.ForEachBatch(ctx, fn)
			if err == nil {
				err = finishPart(i, pr)
			}
			pr.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}

	switch plan.Mode {
	case core.ModeSequential:
		// One decode worker, ordered delivery, primaries fed directly
		// from the delivery goroutine: the reference semantics of the
		// sequential reader with the same coverage accounting as the
		// fused mode.
		err := readParts(func(b dataset.Batch) error {
			for _, o := range b.Recs {
				set.Observe(o)
			}
			return nil
		})
		if err != nil {
			return zero, err
		}

	case core.ModeFused:
		// The decode pool delivers every part's blocks in stream order to
		// one fan-out shared across parts: each analyzer's goroutine sees
		// the merged file's exact stream, and Close adopts the replicas.
		// Abort on error so the primaries stay untouched.
		fan := set.NewFanOut()
		defer fan.Abort()
		err := readParts(func(b dataset.Batch) error {
			return fan.ObserveBatch(ctx, b.Recs)
		})
		if err != nil {
			return zero, err
		}
		if err := fan.Close(); err != nil {
			return zero, err
		}

	default:
		return zero, fmt.Errorf("userv6: unknown execution mode %v", plan.Mode)
	}
	return agg, nil
}
