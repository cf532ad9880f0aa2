package userv6

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// The fused path — blocks decoded on a pool, delivered in order to one
// goroutine per analyzer, replicas adopted by swap — must reproduce a
// sequential replay exactly for every analyzer in the (fully
// commutative) default set, at any worker count, in strict and tolerant
// mode. Run under -race this is also the data-race proof for the whole
// fused pipeline.
func TestAnalyzeDatasetFusedMatchesSequential(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	seq := newAnalyzeSet()
	if !seq.set.Commutative() {
		t.Fatal("default analyzer set must be commutative")
	}
	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ForEach(seq.set.Emit()); err != nil {
		t.Fatal(err)
	}
	r.Close()

	for _, workers := range []int{1, 4} {
		fused := newAnalyzeSet()
		rep, err := sim.AnalyzeDatasetFused(context.Background(), path, workers, fused.set, false)
		if err != nil {
			t.Fatal(err)
		}
		fused.assertEqual(t, seq, "fused strict")
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
	srep, err := dataset.Salvage(bad, tseq.set.Emit())
	if err != nil {
		t.Fatal(err)
	}
	tfused := newAnalyzeSet()
	frep, err := sim.AnalyzeDatasetFused(context.Background(), bad, 4, tfused.set, true)
	if err != nil {
		t.Fatal(err)
	}
	tfused.assertEqual(t, tseq, "fused tolerant")
	if !frep.Equal(srep.Stream) {
		t.Fatalf("tolerant coverage %+v, want %+v", frep, srep.Stream)
	}
}

// AnalyzeDatasetUnordered (completion-order delivery into a replica
// pool) must also reproduce the sequential replay on the default set.
func TestAnalyzeDatasetUnorderedMatchesSequential(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	seq := newAnalyzeSet()
	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ForEach(seq.set.Emit()); err != nil {
		t.Fatal(err)
	}
	r.Close()

	un := newAnalyzeSet()
	rep, err := sim.AnalyzeDatasetUnordered(context.Background(), path, 4, un.set, false)
	if err != nil {
		t.Fatal(err)
	}
	un.assertEqual(t, seq, "unordered")
	if rep.Records == 0 {
		t.Fatalf("unordered report %+v", rep)
	}
}

// orderBound is an analyzer that never declares commutativity; it
// stands in for genuinely order-sensitive accumulation.
type orderBound struct{ last uint64 }

func (o *orderBound) Observe(ob telemetry.Observation) { o.last = ob.UserID }

// A set containing a non-commutative registration must silently fall
// back to the hash-routed pipeline (per-user order preserved), still
// matching the sequential replay; the unordered path must instead
// refuse, naming the offending registration.
func TestAnalyzeDatasetFusedNonCommutativeFallback(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	seq := newAnalyzeSet()
	core.AddAnalyzer(seq.set, &orderBound{},
		func() *orderBound { return &orderBound{} },
		func(into, from *orderBound) {})
	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ForEach(seq.set.Emit()); err != nil {
		t.Fatal(err)
	}
	r.Close()

	mixed := newAnalyzeSet()
	core.AddAnalyzer(mixed.set, &orderBound{},
		func() *orderBound { return &orderBound{} },
		func(into, from *orderBound) {})
	if mixed.set.Commutative() {
		t.Fatal("orderBound registration must veto commutativity")
	}
	if _, err := sim.AnalyzeDatasetFused(context.Background(), path, 4, mixed.set, false); err != nil {
		t.Fatal(err)
	}
	mixed.assertEqual(t, seq, "fused fallback")

	refuse := newAnalyzeSet()
	core.AddAnalyzer(refuse.set, &orderBound{},
		func() *orderBound { return &orderBound{} },
		func(into, from *orderBound) {})
	_, err = sim.AnalyzeDatasetUnordered(context.Background(), path, 4, refuse.set, false)
	if err == nil || !strings.Contains(err.Error(), "*userv6.orderBound") {
		t.Fatalf("unordered on non-commutative set: err = %v, want offender named", err)
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
func TestAnalyzeDatasetFusedWorkerPanic(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	s := newAnalyzeSet()
	core.AddCommutativeAnalyzer(s.set, &bombAnalyzer{},
		func() *bombAnalyzer { return &bombAnalyzer{} },
		func(into, from *bombAnalyzer) {})
	if !s.set.Commutative() {
		t.Fatal("bomb set must stay commutative so the fused path engages")
	}
	_, err := sim.AnalyzeDatasetFused(context.Background(), path, 4, s.set, false)
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
func TestAnalyzeDatasetFusedCancelMidPart(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newAnalyzeSet()
	core.AddCommutativeAnalyzer(s.set, &cancelAnalyzer{},
		func() *cancelAnalyzer { return &cancelAnalyzer{cancel: cancel} },
		func(into, from *cancelAnalyzer) {})
	_, err := sim.AnalyzeDatasetFused(ctx, path, 2, s.set, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := s.uc.Users(); got != 0 {
		t.Fatalf("primaries adopted after cancellation: %d users", got)
	}
}
