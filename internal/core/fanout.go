package core

// Analyzer-parallel consumption: a FanOut runs one goroutine per
// registration, each owning a fresh replica, and hands every batch to
// every goroutine in stream order. Each replica therefore sees exactly
// the stream a sequential feed would, so no two large states ever need
// merging: Close adopts each replica into its primary by a struct
// swap. The parallelism is across analyzers rather than across blocks,
// so the speedup is bounded by the slowest analyzer's share of the
// Observe work.

import (
	"context"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"userv6/internal/telemetry"
)

// fanChanDepth is each analyzer goroutine's channel buffer in batches.
// The analyzers differ several-fold in per-record cost, so the cheap
// ones run ahead and wait; the buffer only has to keep the slowest one
// fed across decode jitter without holding many block copies live.
const fanChanDepth = 8

// sharedBatch is a read-only copy of one delivered batch that every
// analyzer goroutine reads. refs counts the goroutines still reading
// it; the last one returns it to the pool.
type sharedBatch struct {
	recs []telemetry.Observation
	refs atomic.Int32
}

// FanOut feeds every registered analyzer's replica on its own
// goroutine. ObserveBatch must be called from a single goroutine;
// Close joins the goroutines and adopts the replicas into the set's
// primaries, and Abort joins them without adopting. After a successful
// Close the primaries hold exactly the state a sequential feed of the
// same stream would have produced, for every registration.
type FanOut struct {
	set      *AnalyzerSet
	chans    []chan *sharedBatch
	replicas []Observer
	wg       sync.WaitGroup
	free     sync.Pool

	// stop is closed once, by the first goroutine that fails or by
	// Abort; err (written before the close) is that failure.
	stop     chan struct{}
	stopOnce sync.Once
	err      error
	closed   bool
}

// NewFanOut starts one goroutine per registration, each holding a fresh
// replica of its analyzer.
func (s *AnalyzerSet) NewFanOut() *FanOut {
	f := &FanOut{
		set:      s,
		chans:    make([]chan *sharedBatch, len(s.regs)),
		replicas: make([]Observer, len(s.regs)),
		stop:     make(chan struct{}),
	}
	for i := range s.regs {
		f.chans[i] = make(chan *sharedBatch, fanChanDepth)
		f.replicas[i] = s.regs[i].mk()
	}
	f.wg.Add(len(s.regs))
	for i := range s.regs {
		go f.run(i)
	}
	return f
}

func (f *FanOut) halt(err error) {
	f.stopOnce.Do(func() {
		f.err = err
		close(f.stop)
	})
}

func (f *FanOut) run(i int) {
	defer f.wg.Done()
	r := &f.set.regs[i]
	rep := f.replicas[i]
	defer func() {
		if v := recover(); v != nil {
			f.halt(&WorkerPanicError{Worker: i, Analyzer: r.name, Value: v, Stack: debug.Stack()})
			for range f.chans[i] {
				// Drain so the sender never blocks on a dead goroutine.
			}
		}
	}()
	pprof.Do(context.Background(), pprof.Labels("stage", "analyze", "analyzer", r.name), func(context.Context) {
		for b := range f.chans[i] {
			select {
			case <-f.stop:
				// A sibling failed or the run was aborted: skip the
				// work, keep draining until the sender closes.
			default:
				for _, o := range b.recs {
					if r.filter == nil || r.filter(o) {
						rep.Observe(o)
					}
				}
			}
			if b.refs.Add(-1) == 0 {
				f.putBatch(b)
			}
		}
	})
}

// batch returns an empty shared batch from the pool; its last reader
// puts it back through putBatch.
func (f *FanOut) batch() *sharedBatch {
	if b, ok := f.free.Get().(*sharedBatch); ok {
		return b
	}
	return &sharedBatch{recs: make([]telemetry.Observation, 0, telemetry.DefaultBlockRecords)}
}

func (f *FanOut) putBatch(b *sharedBatch) {
	b.recs = b.recs[:0]
	f.free.Put(b)
}

// ObserveBatch copies recs once into a pooled buffer shared by every
// analyzer goroutine and queues it for each of them, so every replica
// sees batches in call order. The caller may reuse recs afterwards. It
// blocks while an analyzer is fanChanDepth batches behind, and returns
// early with ctx's error or the first analyzer failure.
func (f *FanOut) ObserveBatch(ctx context.Context, recs []telemetry.Observation) error {
	if len(recs) == 0 || len(f.chans) == 0 {
		return nil
	}
	b := f.batch()
	b.recs = append(b.recs, recs...)
	b.refs.Store(int32(len(f.chans)))
	for _, ch := range f.chans {
		select {
		case ch <- b:
		case <-f.stop:
			return f.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Close waits for every analyzer goroutine to consume what was queued,
// then adopts each replica into its primary (see registration.adopt).
// A recovered panic surfaces as a *WorkerPanicError naming the analyzer
// and leaves every primary untouched. A second call returns nil.
func (f *FanOut) Close() error {
	if f.closed {
		return nil
	}
	f.join()
	if f.err != nil {
		return f.err
	}
	for i := range f.set.regs {
		f.set.regs[i].adopt(f.replicas[i])
	}
	return nil
}

// Abort tears the fan-out down without adopting: queued batches are
// skipped, the goroutines are joined, and the primaries keep whatever
// state they had. Safe after Close (it becomes a no-op), so
// `defer f.Abort()` pairs with an explicit Close on success.
func (f *FanOut) Abort() {
	if f.closed {
		return
	}
	f.halt(nil)
	f.join()
}

func (f *FanOut) join() {
	f.closed = true
	for _, ch := range f.chans {
		close(ch)
	}
	f.wg.Wait()
}
