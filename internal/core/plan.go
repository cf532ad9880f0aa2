package core

// Plan: the one place that decides how an analysis run executes. The
// choice among sequential, hash-routed pipeline, fused, and unordered
// used to be re-derived independently by the library's AnalyzeDataset*
// wrappers and the CLI's analyze command; both now ask the AnalyzerSet
// to plan from the same inputs — requested mode, worker count,
// tolerance, and the source's shape — and get back the mode, the
// normalized pool size, and a human-readable reason (including which
// analyzers blocked a faster mode).

import (
	"fmt"
	"runtime"
	"strings"
)

// Mode is a concrete execution strategy for one analysis run.
type Mode int

const (
	// ModeSequential feeds the set's primaries directly from a
	// single-threaded read: the reference every parallel mode must
	// match.
	ModeSequential Mode = iota
	// ModePipeline hash-routes observations to analyzer workers by user
	// ID, preserving per-user stream order — exact for every analyzer,
	// commutative or not.
	ModePipeline
	// ModeFused decodes on a worker pool and delivers blocks in stream
	// order to a FanOut: one goroutine per analyzer, each feeding its
	// own replica the whole stream, adopted into the primary by a struct
	// swap at the end, so there is no fold of partial states. The
	// planner picks it only for commutative sets, whose registrations
	// carry the swap.
	ModeFused
	// ModeUnordered delivers batches in completion order into a replica
	// pool. Exact only for commutative sets.
	ModeUnordered
)

func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "sequential"
	case ModePipeline:
		return "pipeline"
	case ModeFused:
		return "fused"
	case ModeUnordered:
		return "unordered"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ModeRequest is what the caller asked for; the planner maps it to a
// Mode it can honor (or an error when it cannot).
type ModeRequest int

const (
	// RequestAuto picks the fastest exact mode: sequential when one
	// worker is requested, fused for commutative sets, pipeline
	// otherwise.
	RequestAuto ModeRequest = iota
	// RequestSequential forces the single-threaded reference path.
	RequestSequential
	// RequestPipeline forces hash-routed ordered delivery.
	RequestPipeline
	// RequestFused asks for the fused path; a non-commutative set falls
	// back to the pipeline (the historical AnalyzeDatasetFused
	// contract).
	RequestFused
	// RequestUnordered demands completion-order delivery; a
	// non-commutative set or a single-worker request is an error, not a
	// fallback (the historical AnalyzeDatasetUnordered contract).
	RequestUnordered
)

func (r ModeRequest) String() string {
	switch r {
	case RequestAuto:
		return "auto"
	case RequestSequential:
		return "sequential"
	case RequestPipeline:
		return "pipeline"
	case RequestFused:
		return "fused"
	case RequestUnordered:
		return "unordered"
	}
	return fmt.Sprintf("ModeRequest(%d)", int(r))
}

// PlanInput is everything mode selection depends on: the request, the
// worker budget, tolerance, and the source's shape as reported by
// dataset.SourceCaps.
type PlanInput struct {
	Request ModeRequest
	// Workers is the requested pool size as the caller spelled it:
	// <= 0 means GOMAXPROCS, 1 means explicitly single-threaded. The
	// distinction matters — unordered delivery refuses an explicit 1
	// but accepts "all CPUs" even on a one-CPU machine, where it
	// degrades gracefully rather than being a spelling error.
	Workers int
	// Tolerant selects the salvage read path on every part.
	Tolerant bool
	// Parts, SeekableParts, and Codec mirror dataset.SourceCaps.
	Parts         int
	SeekableParts bool
	Codec         string
}

// Plan is a resolved execution strategy: the mode, the normalized
// worker count, and why.
type Plan struct {
	Mode Mode
	// Workers is the resolved pool size (GOMAXPROCS applied; 1 for
	// sequential).
	Workers  int
	Parts    int
	Tolerant bool
	// Why is the one-line selection rationale, naming the
	// non-commutative analyzers whenever they constrained the choice.
	Why string
}

// Plan resolves a PlanInput against the set's commutativity
// declarations. It never starts goroutines; the executor reads the
// returned Mode. The only error cases are the unordered refusals: an
// explicit single worker, or analyzers that withhold the commutative
// declaration (named in the error).
func (s *AnalyzerSet) Plan(in PlanInput) (Plan, error) {
	p := Plan{Workers: in.Workers, Parts: in.Parts, Tolerant: in.Tolerant}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Parts <= 0 {
		p.Parts = 1
	}
	offenders := s.NonCommutative()
	switch in.Request {
	case RequestSequential:
		p.Mode, p.Workers = ModeSequential, 1
		p.Why = "sequential requested: the single-threaded reference path"
	case RequestPipeline:
		p.Mode = ModePipeline
		p.Why = "pipeline requested: hash-routed delivery preserves per-user order"
	case RequestUnordered:
		if in.Workers == 1 {
			return Plan{}, fmt.Errorf("core: unordered analysis needs the parallel reader; use workers 0 or > 1")
		}
		if len(offenders) > 0 {
			return Plan{}, fmt.Errorf("core: unordered analysis requires every analyzer to declare a commutative Merge; non-commutative: %v", offenders)
		}
		p.Mode = ModeUnordered
		p.Why = "unordered requested and every analyzer declares a commutative Merge"
	default: // RequestAuto, RequestFused
		if in.Request == RequestAuto && in.Workers == 1 {
			p.Mode, p.Workers = ModeSequential, 1
			p.Why = "one worker requested: the single-threaded reference path"
			break
		}
		if len(offenders) > 0 {
			p.Mode = ModePipeline
			p.Why = fmt.Sprintf("fused needs commutative analyzers; %s withhold the declaration, so hash-routed pipeline delivery preserves per-user order",
				strings.Join(offenders, ", "))
			break
		}
		p.Mode = ModeFused
		p.Why = "every analyzer declares a commutative Merge: decode workers deliver blocks in order to one goroutine per analyzer, whose replicas are adopted by swap"
	}
	return p, nil
}

// Explain renders the plan as one line for humans (the CLI's -explain
// flag): mode, pool size, part fan-out, and the selection rationale.
func (p Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s workers=%d", p.Mode, p.Workers)
	if p.Parts > 1 {
		fmt.Fprintf(&b, " parts=%d", p.Parts)
	}
	if p.Tolerant {
		b.WriteString(" tolerant")
	}
	if p.Why != "" {
		b.WriteString(" — ")
		b.WriteString(p.Why)
	}
	if p.Parts > 1 {
		b.WriteString(fmt.Sprintf("; %d parts analyzed independently (disjoint user ranges fold exactly)", p.Parts))
	}
	return b.String()
}
