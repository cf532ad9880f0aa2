package core

// Plan: the one place that decides how an analysis run executes. The
// library's AnalyzeSource and the CLI's analyze command both plan from
// the same inputs — worker count, tolerance, and the source's part
// count — and get back the mode, the normalized pool size, and a
// human-readable reason.

import (
	"fmt"
	"runtime"
	"strings"
)

// Mode is a concrete execution strategy for one analysis run.
type Mode int

const (
	// ModeSequential feeds the set's primaries directly from a
	// single-threaded read: the reference the parallel mode must match.
	ModeSequential Mode = iota
	// ModeFused decodes on a worker pool and delivers blocks in stream
	// order to a FanOut: one goroutine per analyzer, each feeding its
	// own replica the whole stream, adopted into the primary by a struct
	// swap at the end, so there is no fold of partial states.
	ModeFused
)

func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "sequential"
	case ModeFused:
		return "fused"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// PlanInput is everything mode selection depends on.
type PlanInput struct {
	// Workers is the requested pool size: <= 0 means GOMAXPROCS, 1
	// means explicitly single-threaded.
	Workers int
	// Tolerant selects the salvage read path on every part.
	Tolerant bool
	// Parts is the source's part count.
	Parts int
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
	// Why is the one-line selection rationale.
	Why string
}

// NewPlan resolves a PlanInput. The mode depends on the worker count
// alone: an explicit single worker runs the sequential reference path,
// anything else the fused path. It never starts goroutines; the
// executor reads the returned Mode.
func NewPlan(in PlanInput) Plan {
	p := Plan{Mode: ModeFused, Workers: in.Workers, Parts: max(in.Parts, 1), Tolerant: in.Tolerant,
		Why: "decode workers deliver blocks in order to one goroutine per analyzer, whose replicas are adopted by swap"}
	if in.Workers == 1 {
		p.Mode = ModeSequential
		p.Why = "one worker requested: the single-threaded reference path"
	} else if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
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
		b.WriteString(fmt.Sprintf("; %d parts streamed in order through the same analyzers", p.Parts))
	}
	return b.String()
}
