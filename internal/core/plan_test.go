package core

import (
	"runtime"
	"strings"
	"testing"

	"userv6/internal/telemetry"
)

type nopObserver struct{}

func (*nopObserver) Observe(telemetry.Observation) {}

func commutativeSet() *AnalyzerSet {
	s := NewAnalyzerSet()
	AddCommutativeAnalyzer(s, &nopObserver{}, func() *nopObserver { return &nopObserver{} },
		func(into, from *nopObserver) {})
	return s
}

type orderBound struct{}

func (orderBound) Observe(telemetry.Observation) {}

func mixedSet() *AnalyzerSet {
	s := commutativeSet()
	AddAnalyzer(s, orderBound{}, func() orderBound { return orderBound{} },
		func(into, from orderBound) {})
	return s
}

func TestPlanModeSelection(t *testing.T) {
	cases := []struct {
		name    string
		set     *AnalyzerSet
		in      PlanInput
		want    Mode
		workers int // 0 = GOMAXPROCS expected
	}{
		{"auto one worker", commutativeSet(), PlanInput{Request: RequestAuto, Workers: 1}, ModeSequential, 1},
		{"auto commutative", commutativeSet(), PlanInput{Request: RequestAuto, Workers: 4}, ModeFused, 4},
		{"auto default workers", commutativeSet(), PlanInput{Request: RequestAuto}, ModeFused, 0},
		{"auto non-commutative", mixedSet(), PlanInput{Request: RequestAuto, Workers: 4}, ModePipeline, 4},
		{"forced sequential", commutativeSet(), PlanInput{Request: RequestSequential, Workers: 8}, ModeSequential, 1},
		{"forced pipeline", commutativeSet(), PlanInput{Request: RequestPipeline, Workers: 4}, ModePipeline, 4},
		{"forced fused one worker", commutativeSet(), PlanInput{Request: RequestFused, Workers: 1}, ModeFused, 1},
		{"fused falls back", mixedSet(), PlanInput{Request: RequestFused, Workers: 4}, ModePipeline, 4},
		{"unordered", commutativeSet(), PlanInput{Request: RequestUnordered, Workers: 4}, ModeUnordered, 4},
		// Workers <= 0 means "all CPUs", which must stay legal for
		// unordered even on a single-core machine — only an explicit 1
		// is refused.
		{"unordered default workers", commutativeSet(), PlanInput{Request: RequestUnordered}, ModeUnordered, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.set.Plan(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if p.Mode != tc.want {
				t.Fatalf("mode %v, want %v (why: %s)", p.Mode, tc.want, p.Why)
			}
			wantWorkers := tc.workers
			if wantWorkers == 0 {
				wantWorkers = runtime.GOMAXPROCS(0)
			}
			if p.Workers != wantWorkers {
				t.Fatalf("workers %d, want %d", p.Workers, wantWorkers)
			}
			if p.Why == "" {
				t.Fatal("plan has no rationale")
			}
		})
	}
}

func TestPlanUnorderedRefusals(t *testing.T) {
	if _, err := commutativeSet().Plan(PlanInput{Request: RequestUnordered, Workers: 1}); err == nil {
		t.Fatal("unordered with an explicit single worker must be refused")
	}
	_, err := mixedSet().Plan(PlanInput{Request: RequestUnordered, Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "core.orderBound") {
		t.Fatalf("unordered on a non-commutative set: err = %v, want offender named", err)
	}
}

func TestPlanFallbackNamesOffenders(t *testing.T) {
	p, err := mixedSet().Plan(PlanInput{Request: RequestAuto, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Why, "core.orderBound") {
		t.Fatalf("pipeline fallback rationale %q does not name the offender", p.Why)
	}
}

func TestPlanExplain(t *testing.T) {
	p, err := commutativeSet().Plan(PlanInput{Request: RequestAuto, Workers: 3, Tolerant: true, Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	for _, want := range []string{"mode=fused", "workers=3", "parts=4", "tolerant"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("Explain() = %q, missing %q", ex, want)
		}
	}
}

type countAnalyzer struct{ n int }

func (c *countAnalyzer) Observe(telemetry.Observation) { c.n++ }

func TestPipelineAbortLeavesPrimariesUnfolded(t *testing.T) {
	s := NewAnalyzerSet()
	primary := &countAnalyzer{}
	AddAnalyzer(s, primary, func() *countAnalyzer { return &countAnalyzer{} },
		func(into, from *countAnalyzer) { into.n += from.n })
	p := s.NewPipeline(2)
	for i := 0; i < 1000; i++ {
		p.Observe(telemetry.Observation{UserID: uint64(i)})
	}
	p.Abort()
	if primary.n != 0 {
		t.Fatalf("primary folded after Abort: %d observations", primary.n)
	}
	// Abort after Abort (and Close after Abort) must be no-ops.
	p.Abort()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
