package userv6

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

// fusedTestUsers scales the generated population down under -short so
// the -race CI lane stays fast while the full sweep keeps real volume.
func fusedTestUsers() int {
	if testing.Short() {
		return 400
	}
	return 1_500
}

// writeAnalyzeDataset generates one analysis week of telemetry into a
// dataset file and returns its path.
func writeAnalyzeDataset(t *testing.T, sim *Sim, users int) string {
	t.Helper()
	from, to := AnalysisWeek()
	path := filepath.Join(t.TempDir(), "w.uv6")
	w, err := dataset.Create(path, dataset.Meta{Seed: 1, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	emit, errp := w.Emit()
	sim.Generate(from, to, emit)
	if *errp != nil {
		t.Fatal(*errp)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// analyzeFile runs AnalyzeSource over one dataset file.
func analyzeFile(ctx context.Context, path string, workers int, set *core.AnalyzerSet, tolerant bool) (telemetry.SalvageReport, error) {
	src, err := dataset.NewFileSource(path)
	if err != nil {
		return telemetry.SalvageReport{}, err
	}
	return AnalyzeSource(ctx, src, set, AnalyzeOptions{Workers: workers, Tolerant: tolerant})
}

// The fused path — blocks decoded on a pool, delivered in order to one
// goroutine per analyzer, replicas adopted by swap — must reproduce a
// sequential replay exactly for every analyzer in the default set, in
// strict and tolerant mode; workers=1 runs the sequential plan over
// the same reader for comparison. Run under -race this is also the
// data-race proof for the whole fused pipeline.
func TestAnalyzeFusedMatchesSequential(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	seq := newAnalyzeSet()
	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ForEach(seq.set.Observe); err != nil {
		t.Fatal(err)
	}
	r.Close()

	for _, workers := range []int{1, 4} {
		fused := newAnalyzeSet()
		rep, err := analyzeFile(context.Background(), path, workers, fused.set, false)
		if err != nil {
			t.Fatal(err)
		}
		fused.assertEqual(t, seq, fmt.Sprintf("workers=%d strict", workers))
		if rep.Records == 0 || rep.CorruptBlocks != 0 {
			t.Fatalf("workers=%d: strict report %+v", workers, rep)
		}
	}

	// Tolerant fused on a damaged copy must match dataset.Salvage, both
	// in analyzer state and coverage accounting.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[256+4+16+2000] ^= 0x20 // corrupt block 0
	bad := filepath.Join(t.TempDir(), "bad.uv6")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tseq := newAnalyzeSet()
	srep, err := dataset.Salvage(bad, tseq.set.Observe)
	if err != nil {
		t.Fatal(err)
	}
	tfused := newAnalyzeSet()
	frep, err := analyzeFile(context.Background(), bad, 4, tfused.set, true)
	if err != nil {
		t.Fatal(err)
	}
	tfused.assertEqual(t, tseq, "fused tolerant")
	if !frep.Equal(srep.Stream) {
		t.Fatalf("tolerant coverage %+v, want %+v", frep, srep.Stream)
	}
	if frep.CorruptBlocks != 1 {
		t.Fatalf("expected 1 corrupt block, got %+v", frep)
	}
}

// bombAnalyzer panics partway into the stream, exercising the fused
// path's analyzer-goroutine fault isolation.
type bombAnalyzer struct{ n int }

func (b *bombAnalyzer) Observe(telemetry.Observation) {
	if b.n++; b.n > 100 {
		panic("bomb")
	}
}

// A panic inside a fused analyzer goroutine's replica must surface as a
// typed *core.WorkerPanicError naming the analyzer and leave the set's
// primaries untouched — no partial adoption masquerading as a result.
func TestAnalyzeFusedWorkerPanic(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	s := newAnalyzeSet()
	core.AddCommutativeAnalyzer(s.set, &bombAnalyzer{},
		func() *bombAnalyzer { return &bombAnalyzer{} },
		func(into, from *bombAnalyzer) {})
	_, err := analyzeFile(context.Background(), path, 4, s.set, false)
	var pe *core.WorkerPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *core.WorkerPanicError, got %v", err)
	}
	if pe.Value != "bomb" {
		t.Fatalf("panic value %v, want bomb", pe.Value)
	}
	if pe.Analyzer != "*userv6.bombAnalyzer" {
		t.Fatalf("panic names analyzer %q, want *userv6.bombAnalyzer", pe.Analyzer)
	}
	if got := s.uc.Users(); got != 0 {
		t.Fatalf("primaries folded after failure: %d users", got)
	}
	if got := s.churn.Breakdown(); got.Total != 0 {
		t.Fatalf("churn primary folded after failure: %+v", got)
	}
}

// cancelAnalyzer cancels the run's context at its first observation.
type cancelAnalyzer struct{ cancel context.CancelFunc }

func (c *cancelAnalyzer) Observe(telemetry.Observation) { c.cancel() }

// Cancelling a fused run in the middle of a part must return the
// context's error and leave every primary untouched. The cancel lands
// while the first block is analyzed; the reader can be at most one
// fan-out queue (a few blocks) ahead of it, well short of the end of
// the file.
func TestAnalyzeFusedCancelMidPart(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newAnalyzeSet()
	core.AddCommutativeAnalyzer(s.set, &cancelAnalyzer{},
		func() *cancelAnalyzer { return &cancelAnalyzer{cancel: cancel} },
		func(into, from *cancelAnalyzer) {})
	_, err := analyzeFile(ctx, path, 2, s.set, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := s.uc.Users(); got != 0 {
		t.Fatalf("primaries adopted after cancellation: %d users", got)
	}
}
