package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// streamRecorder logs every observation it sees, in order: the
// strictest order-sensitive analyzer there is.
type streamRecorder struct{ seen []telemetry.Observation }

func (r *streamRecorder) Observe(o telemetry.Observation) { r.seen = append(r.seen, o) }

func addRecorder(set *AnalyzerSet, filter func(telemetry.Observation) bool) *streamRecorder {
	r := &streamRecorder{}
	AddCommutativeAnalyzerFiltered(set, r, func() *streamRecorder { return &streamRecorder{} },
		func(into, from *streamRecorder) { into.seen = append(into.seen, from.seen...) }, filter)
	return r
}

// waitGoroutines waits until no more goroutines run than before; a
// fan-out's goroutines have all returned once Close or Abort does, but
// the runtime retires them asynchronously.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the fan-out", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every fan-out goroutine must see exactly the sequential stream, in
// order, whatever the batch sizes, even though the caller reuses its
// batch buffer between calls.
func TestFanOutDeliversSequentialStream(t *testing.T) {
	stream := pipelineStream()
	notAbusive := func(o telemetry.Observation) bool { return !o.Abusive }
	set := NewAnalyzerSet()
	all := addRecorder(set, nil)
	benign := addRecorder(set, notAbusive)

	fan := set.NewFanOut()
	defer fan.Abort()
	buf := make([]telemetry.Observation, 0, 2048)
	sizes := []int{1, 7, 300, 1024, 2048, 3}
	for lo, i := 0, 0; lo < len(stream); i++ {
		hi := min(lo+sizes[i%len(sizes)], len(stream))
		buf = append(buf[:0], stream[lo:hi]...)
		if err := fan.ObserveBatch(context.Background(), buf); err != nil {
			t.Fatal(err)
		}
		clear(buf) // the fan-out must have copied the batch
		lo = hi
	}
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(all.seen, stream) {
		t.Fatalf("recorder saw %d observations, not the %d-observation stream in order", len(all.seen), len(stream))
	}
	var want []telemetry.Observation
	for _, o := range stream {
		if notAbusive(o) {
			want = append(want, o)
		}
	}
	if !reflect.DeepEqual(benign.seen, want) {
		t.Fatalf("filtered recorder saw %d observations, want the %d benign ones in order", len(benign.seen), len(want))
	}
}

// A panicking analyzer must surface as a typed error naming it, leave
// every primary untouched (none is swapped), and leave no goroutine
// behind.
func TestFanOutPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	set := NewAnalyzerSet()
	uc := NewUserCentricFor(false)
	AddCommutativeAnalyzer(set, uc, func() *UserCentric { return NewUserCentricFor(false) }, (*UserCentric).Merge)
	AddCommutativeAnalyzer(set, &panicAnalyzer{at: 17},
		func() *panicAnalyzer { return &panicAnalyzer{at: 17} },
		func(into, from *panicAnalyzer) {})
	rec := addRecorder(set, nil)

	fan := set.NewFanOut()
	stream := pipelineStream()
	var sendErr error
	for lo := 0; lo < len(stream) && sendErr == nil; lo += 64 {
		sendErr = fan.ObserveBatch(context.Background(), stream[lo:min(lo+64, len(stream))])
	}
	err := fan.Close()
	if sendErr != nil && !errors.Is(err, sendErr) {
		t.Fatalf("ObserveBatch failed with %v, Close with %v", sendErr, err)
	}
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("want *WorkerPanicError, got %v", err)
	}
	if wp.Worker != 1 || wp.Analyzer != "*core.panicAnalyzer" || wp.Value != "poisoned record" || len(wp.Stack) == 0 {
		t.Fatalf("panic error %+v does not name the analyzer", wp)
	}
	if uc.Users() != 0 || len(rec.seen) != 0 {
		t.Fatalf("primaries adopted after failure: %d users, %d recorded", uc.Users(), len(rec.seen))
	}
	waitGoroutines(t, before)
}

// blockingObserver parks its goroutine on the first observation until
// release closes, so the fan-out's queue fills up behind it.
type blockingObserver struct {
	started chan struct{}
	release chan struct{}
	n       int
}

func (b *blockingObserver) Observe(telemetry.Observation) {
	if b.n++; b.n == 1 {
		close(b.started)
		<-b.release
	}
}

// Cancelling the context while the sender waits on a full analyzer
// queue, in the middle of a part, must return the context's error
// without waiting for the analyzer; Abort must then join every
// goroutine and leave the primaries untouched.
func TestFanOutCancelMidPart(t *testing.T) {
	before := runtime.NumGoroutine()
	started, release := make(chan struct{}), make(chan struct{})
	set := NewAnalyzerSet()
	rec := addRecorder(set, nil)
	AddCommutativeAnalyzer(set, &blockingObserver{},
		func() *blockingObserver { return &blockingObserver{started: started, release: release} },
		func(into, from *blockingObserver) {})

	fan := set.NewFanOut()
	stream := pipelineStream()
	ctx, cancel := context.WithCancel(context.Background())
	// One batch parks the blocking analyzer, fanChanDepth more fill its
	// queue; the next send can only end through ctx.
	for i := 0; i <= fanChanDepth; i++ {
		if err := fan.ObserveBatch(ctx, stream[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-started
		}
	}
	cancel()
	if err := fan.ObserveBatch(ctx, stream[:100]); !errors.Is(err, context.Canceled) {
		t.Fatalf("send on a full queue after cancel: %v, want context.Canceled", err)
	}
	close(release)
	fan.Abort()
	if err := fan.Close(); err != nil {
		t.Fatalf("Close after Abort: %v", err)
	}
	if len(rec.seen) != 0 {
		t.Fatalf("primary adopted %d observations after an aborted run", len(rec.seen))
	}
	waitGoroutines(t, before)
}

// countAnalyzer counts what it observes.
type countAnalyzer struct{ n int }

func (c *countAnalyzer) Observe(telemetry.Observation) { c.n++ }

// A second Close must return nil without adopting again: the primary
// keeps the first adoption's state and its fold runs exactly once.
func TestFanOutCloseIdempotent(t *testing.T) {
	set := NewAnalyzerSet()
	primary, folds := &countAnalyzer{}, 0
	AddCommutativeAnalyzer(set, primary, func() *countAnalyzer { return &countAnalyzer{} },
		func(into, from *countAnalyzer) { into.n += from.n; folds++ })
	fan := set.NewFanOut()
	if err := fan.ObserveBatch(context.Background(), pipelineStream()[:10]); err != nil {
		t.Fatal(err)
	}
	if err := fan.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fan.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if primary.n != 10 || folds != 1 {
		t.Fatalf("after two Closes: primary observed %d, fold ran %d times; want 10 and 1", primary.n, folds)
	}
}

// Adopting by swap must stay exact when the primary already held state:
// the primary's old state is folded back in. Checked for Fold (first
// replica swapped, the rest merged, arbitrary non-user-disjoint split)
// and for FanOut.Close.
func TestFoldSwapPrimaryHeldState(t *testing.T) {
	stream := pipelineStream()
	const ref = simtime.Day(7)
	third := len(stream) / 3

	want, wuc, wic, wchurn, wlife, wprev := fullSet(ref)
	for _, o := range stream {
		want.Observe(o)
	}

	feeds := map[string]func(set *AnalyzerSet, rest []telemetry.Observation) error{
		"Fold": func(set *AnalyzerSet, rest []telemetry.Observation) error {
			replicas := []*Replica{set.NewReplica(), set.NewReplica()}
			for i, o := range rest {
				replicas[i%2].Observe(o)
			}
			set.Fold(replicas...)
			return nil
		},
		"FanOut": func(set *AnalyzerSet, rest []telemetry.Observation) error {
			fan := set.NewFanOut()
			defer fan.Abort()
			if err := fan.ObserveBatch(context.Background(), rest); err != nil {
				return err
			}
			return fan.Close()
		},
	}
	for name, feed := range feeds {
		set, uc, ic, churn, life, prev := fullSet(ref)
		for _, o := range stream[:third] {
			set.Observe(o)
		}
		if err := feed(set, stream[third:]); err != nil {
			t.Fatal(err)
		}
		if uc.Users() != wuc.Users() || !reflect.DeepEqual(uc.AddrsPerUser(netaddr.IPv6), wuc.AddrsPerUser(netaddr.IPv6)) ||
			!reflect.DeepEqual(uc.PrefixSpans([]int{44, 64}), wuc.PrefixSpans([]int{44, 64})) {
			t.Fatalf("%s: UserCentric differs from the sequential feed", name)
		}
		if !reflect.DeepEqual(ic.UsersPerPrefix(), wic.UsersPerPrefix()) || !reflect.DeepEqual(ic.TopPrefixes(5), wic.TopPrefixes(5)) {
			t.Fatalf("%s: IPCentric differs from the sequential feed", name)
		}
		if churn.Breakdown() != wchurn.Breakdown() {
			t.Fatalf("%s: churn %+v, want %+v", name, churn.Breakdown(), wchurn.Breakdown())
		}
		if life.Pairs() != wlife.Pairs() || !reflect.DeepEqual(life.AgeHist(netaddr.IPv6, 128), wlife.AgeHist(netaddr.IPv6, 128)) {
			t.Fatalf("%s: Lifespans differ from the sequential feed", name)
		}
		if !reflect.DeepEqual(prev.Daily(), wprev.Daily()) || !reflect.DeepEqual(prev.TopASNs(1, 0, nil), wprev.TopASNs(1, 0, nil)) {
			t.Fatalf("%s: Prevalence differs from the sequential feed", name)
		}
	}
}
