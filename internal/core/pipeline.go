package core

// Block-parallel analysis: an AnalyzerSet names the analyzers a run
// wants populated, and a Pipeline fans observations out to workers that
// each own a private replica of every registered analyzer. Observations
// route to workers by a hash of the user ID, so each user's full
// in-order history lands on exactly one worker and per-user analyzer
// state never crosses goroutines — the guarantee an order-dependent
// analyzer needs for an exact fold. (Every built-in analyzer is now
// commutative — see ChurnAttribution.Merge — so the default set runs on
// the analyzer-parallel FanOut instead, see fanout.go; the Pipeline
// remains the fallback for sets that withhold the declaration.) Close
// folds the replicas into the primaries with the analyzers' Merge
// methods.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"

	"userv6/internal/telemetry"
)

// Observer is the streaming-analyzer interface every core analyzer
// satisfies: consume one observation, answer queries later.
type Observer interface {
	Observe(telemetry.Observation)
}

// AnalyzerSet is a named collection of analyzers to populate from one
// pass over a telemetry stream. Register each analyzer with AddAnalyzer,
// then either feed the set directly (sequential) or run a Pipeline over
// it (parallel); both leave the registered primaries holding identical
// state.
type AnalyzerSet struct {
	regs []registration
}

type registration struct {
	name    string
	primary Observer
	mk      func() Observer
	fold    func(replica Observer)
	filter  func(telemetry.Observation) bool
	// swap exchanges the primary's and a replica's structs; set only by
	// the commutative registrations, for which it doubles as the
	// declaration.
	swap func(replica Observer)
}

// adopt moves a replica's state into the primary. A commutative
// registration swaps the two structs and folds the primary's old state
// back in — exact because its Merge is commutative, and nearly free
// when the primary started empty; any other registration folds the
// replica. The replica is consumed: afterwards its state is
// unspecified.
func (r *registration) adopt(replica Observer) {
	if r.swap != nil {
		r.swap(replica)
	}
	r.fold(replica)
}

// NewAnalyzerSet returns an empty set.
func NewAnalyzerSet() *AnalyzerSet { return &AnalyzerSet{} }

// Len returns the number of registered analyzers.
func (s *AnalyzerSet) Len() int { return len(s.regs) }

// AddAnalyzer registers primary with the set. mk constructs a fresh
// replica configured identically to primary (same restriction, window,
// prefix lengths, ...); fold merges a replica's state into the
// first argument — an analyzer's Merge method expression, e.g.
// (*UserCentric).Merge, fits directly.
func AddAnalyzer[T Observer](s *AnalyzerSet, primary T, mk func() T, fold func(into, from T)) {
	AddAnalyzerFiltered(s, primary, mk, fold, nil)
}

// AddAnalyzerFiltered is AddAnalyzer with a pre-filter: only
// observations for which filter returns true reach this analyzer (nil
// accepts everything). The filter runs on the worker goroutines, so it
// must be pure.
func AddAnalyzerFiltered[T Observer](s *AnalyzerSet, primary T, mk func() T, fold func(into, from T), filter func(telemetry.Observation) bool) {
	s.regs = append(s.regs, registration{
		name:    fmt.Sprintf("%T", primary),
		primary: primary,
		mk:      func() Observer { return mk() },
		fold:    func(replica Observer) { fold(primary, replica.(T)) },
		filter:  filter,
	})
}

// AddCommutativeAnalyzer is AddAnalyzer plus a declaration: the
// analyzer's accumulated state is invariant under observation order and
// under how the stream is partitioned across replicas before folding.
// Concretely, feeding any permutation of the same multiset of
// observations — or splitting it arbitrarily (not just user-disjointly)
// across replicas and folding — must leave state identical to the
// in-order sequential feed. Declaring it is what authorizes
// completion-order delivery (analyze -unordered), the planner's fused
// mode, and adopting a replica by swap (see registration.adopt): the
// planner checks Commutative() before choosing either mode. Analyzers
// whose state is a pure set- or lattice-fold qualify: set-shaped dedup
// (UserCentric's and IPCentric's (user, prefix) pair sets), min/OR
// folds (Lifespans), sum/OR folds (Prevalence), and min-day first-sight
// tuples (ChurnAttribution since its commutative reformulation). An
// analyzer that inspects transitions between consecutive observations
// at Observe time would not.
//
// The analyzer must be a pointer to a struct that may be copied by
// value: adopting a replica swaps the primary's and the replica's
// structs (see AnalyzerSet.Fold and FanOut.Close).
func AddCommutativeAnalyzer[U any, T interface {
	*U
	Observer
}](s *AnalyzerSet, primary T, mk func() T, fold func(into, from T)) {
	AddCommutativeAnalyzerFiltered(s, primary, mk, fold, nil)
}

// AddCommutativeAnalyzerFiltered is AddAnalyzerFiltered plus the
// order-insensitivity declaration of AddCommutativeAnalyzer. The
// filter runs on worker goroutines and must be pure; a pure filter
// preserves commutativity (it only thins the multiset).
func AddCommutativeAnalyzerFiltered[U any, T interface {
	*U
	Observer
}](s *AnalyzerSet, primary T, mk func() T, fold func(into, from T), filter func(telemetry.Observation) bool) {
	AddAnalyzerFiltered(s, primary, mk, fold, filter)
	s.regs[len(s.regs)-1].swap = func(replica Observer) {
		r := replica.(T)
		*primary, *r = *r, *primary
	}
}

// Commutative reports whether every registered analyzer was declared
// order-insensitive via AddCommutativeAnalyzer (vacuously true for an
// empty set). Only then is unordered, arbitrarily-partitioned delivery
// exact.
func (s *AnalyzerSet) Commutative() bool {
	return len(s.NonCommutative()) == 0
}

// NonCommutative returns the type names of every registered analyzer
// that was NOT declared commutative — the analyzers an unordered or
// fused run would have to name when refusing to start. Empty for a set
// that is safe to feed in any order.
func (s *AnalyzerSet) NonCommutative() []string {
	var out []string
	for i := range s.regs {
		if s.regs[i].swap == nil {
			out = append(out, s.regs[i].name)
		}
	}
	return out
}

// Observe feeds one observation to every registered primary directly —
// the sequential path, and the reference the pipeline must match.
func (s *AnalyzerSet) Observe(o telemetry.Observation) {
	for i := range s.regs {
		r := &s.regs[i]
		if r.filter == nil || r.filter(o) {
			r.primary.Observe(o)
		}
	}
}

// Emit adapts Observe to a telemetry.EmitFunc.
func (s *AnalyzerSet) Emit() telemetry.EmitFunc { return s.Observe }

// Replica is an independent copy of every registered analyzer, for
// producers that already partition users (e.g. sharded generation over
// disjoint user ranges): each partition feeds its own Replica with no
// routing or locking, and Fold merges them back into the primaries.
type Replica struct {
	set *AnalyzerSet
	obs []Observer
}

// NewReplica constructs a fresh replica of every registered analyzer.
// Call it (and Fold) from one goroutine; the Replica itself is then
// free to live on another.
func (s *AnalyzerSet) NewReplica() *Replica {
	r := &Replica{set: s, obs: make([]Observer, len(s.regs))}
	for i := range s.regs {
		r.obs[i] = s.regs[i].mk()
	}
	return r
}

// Observe feeds one observation to the replica's analyzers.
func (r *Replica) Observe(o telemetry.Observation) {
	for i, rep := range r.obs {
		if f := r.set.regs[i].filter; f == nil || f(o) {
			rep.Observe(o)
		}
	}
}

// Emit adapts Observe to a telemetry.EmitFunc.
func (r *Replica) Emit() telemetry.EmitFunc { return r.Observe }

// Fold merges the replicas' state into the set's primaries, in argument
// order. The first replica is adopted: a commutative registration swaps
// it in instead of copying it (see registration.adopt). Exactness
// matches the analyzers' Merge contracts: user-disjoint replicas fold
// exactly for every analyzer; arbitrary splits are exact for the
// set-algebraic ones (see ChurnAttribution.Merge). Fold consumes the
// replicas: their state afterwards is unspecified.
func (s *AnalyzerSet) Fold(replicas ...*Replica) {
	for i, r := range replicas {
		for j, rep := range r.obs {
			if i == 0 {
				s.regs[j].adopt(rep)
			} else {
				s.regs[j].fold(rep)
			}
		}
	}
}

// WorkerPanicError reports a panic recovered on a pipeline worker or a
// fan-out analyzer goroutine. For the fan-out, Worker is the
// registration index and Analyzer the registration's type name.
type WorkerPanicError struct {
	Worker   int
	Analyzer string
	Value    any
	Stack    []byte
}

func (e *WorkerPanicError) Error() string {
	if e.Analyzer != "" {
		return fmt.Sprintf("core: analyzer %d (%s) panicked: %v", e.Worker, e.Analyzer, e.Value)
	}
	return fmt.Sprintf("core: analysis pipeline worker %d panicked: %v", e.Worker, e.Value)
}

// pipelineBatch is the router→worker handoff size: large enough to
// amortize channel synchronization, small enough to keep workers busy.
const pipelineBatch = 512

// pipelineChanDepth is each worker's channel buffer in batches. Deep
// enough that the single-goroutine router never stalls on one busy
// worker while others sit idle: with block-sized ObserveBatch sends
// (one sub-batch per worker per block) the router can stay a dozen
// blocks ahead of the slowest worker.
const pipelineChanDepth = 16

// Pipeline routes a telemetry stream across analyzer-replica workers.
// Observe must be called from a single goroutine (it is the router);
// Close flushes, waits for the workers, and folds their replicas into
// the set's primaries. After a successful Close the primaries hold
// exactly the state a sequential feed of the same stream would have
// produced.
type Pipeline struct {
	set     *AnalyzerSet
	workers []*pipeWorker
	pending [][]telemetry.Observation
	free    sync.Pool
	closed  bool
}

type pipeWorker struct {
	ch       chan []telemetry.Observation
	done     chan struct{}
	replicas []Observer
	err      error // written before done closes
}

// NewPipeline starts workers goroutines (<= 0 means GOMAXPROCS), each
// holding a fresh replica of every registered analyzer.
func (s *AnalyzerSet) NewPipeline(workers int) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{
		set:     s,
		workers: make([]*pipeWorker, workers),
		pending: make([][]telemetry.Observation, workers),
	}
	for i := range p.workers {
		w := &pipeWorker{
			ch:       make(chan []telemetry.Observation, pipelineChanDepth),
			done:     make(chan struct{}),
			replicas: make([]Observer, len(s.regs)),
		}
		for j := range s.regs {
			w.replicas[j] = s.regs[j].mk()
		}
		p.workers[i] = w
		go p.run(i, w)
	}
	return p
}

// Workers returns the pool size.
func (p *Pipeline) Workers() int { return len(p.workers) }

func (p *Pipeline) run(idx int, w *pipeWorker) {
	defer close(w.done)
	defer func() {
		if v := recover(); v != nil {
			w.err = &WorkerPanicError{Worker: idx, Value: v, Stack: debug.Stack()}
			for range w.ch {
				// Drain so the router never blocks on a dead worker.
			}
		}
	}()
	// Label the goroutine so -cpuprofile output attributes analyzer
	// time to the analyze stage per worker, separate from the decode
	// pool's decode/decompress time.
	pprof.Do(context.Background(), pprof.Labels("stage", "analyze", "worker", strconv.Itoa(idx)), func(context.Context) {
		for batch := range w.ch {
			for _, o := range batch {
				for j, rep := range w.replicas {
					if f := p.set.regs[j].filter; f == nil || f(o) {
						rep.Observe(o)
					}
				}
			}
			p.free.Put(&batch)
		}
	})
}

// mix64 is the splitmix64 finalizer: user IDs are often sequential, and
// the worker index must depend on every bit so adjacent users spread
// across the pool.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Observe routes one observation to its user's worker. Single-goroutine
// only; the per-user order of calls is preserved on the worker.
func (p *Pipeline) Observe(o telemetry.Observation) {
	i := int(mix64(o.UserID) % uint64(len(p.workers)))
	b := p.pending[i]
	if b == nil {
		b = p.batch()
	}
	b = append(b, o)
	if len(b) >= pipelineBatch {
		p.workers[i].ch <- b
		b = nil
	}
	p.pending[i] = b
}

// ObserveBatch routes a slice of observations — typically one decoded
// block — in one partitioning pass: each record is appended to its
// worker's pending sub-batch (pooled slices, no per-record flush
// branch) and every sub-batch that reached the handoff threshold is
// sent once at the end. The result is at most one routed send per
// worker per block instead of a length check and potential send per
// observation, which is what keeps the single-goroutine router off the
// critical path. The records slice may be reused by the caller
// afterwards; values are copied out. Interleaves correctly with
// Observe: both append to the same per-worker pending buffers, so
// per-user order is preserved.
func (p *Pipeline) ObserveBatch(recs []telemetry.Observation) {
	n := uint64(len(p.workers))
	for _, o := range recs {
		i := int(mix64(o.UserID) % n)
		b := p.pending[i]
		if b == nil {
			b = p.batch()
		}
		p.pending[i] = append(b, o)
	}
	for i, b := range p.pending {
		if len(b) >= pipelineBatch {
			p.workers[i].ch <- b
			p.pending[i] = nil
		}
	}
}

// Emit adapts Observe to a telemetry.EmitFunc.
func (p *Pipeline) Emit() telemetry.EmitFunc { return p.Observe }

func (p *Pipeline) batch() []telemetry.Observation {
	if b, ok := p.free.Get().(*[]telemetry.Observation); ok {
		return (*b)[:0]
	}
	return make([]telemetry.Observation, 0, pipelineBatch)
}

// Close flushes the routed stream, waits for every worker, and folds
// the replicas into the set's primaries in worker order. A worker panic
// surfaces as a *WorkerPanicError and leaves the primaries unfolded.
// Close is idempotent only in that a second call returns nil without
// refolding; call it exactly once per pipeline.
func (p *Pipeline) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	for i, w := range p.workers {
		if b := p.pending[i]; len(b) > 0 {
			w.ch <- b
			p.pending[i] = nil
		}
		close(w.ch)
	}
	var firstErr error
	for _, w := range p.workers {
		<-w.done
		if w.err != nil && firstErr == nil {
			firstErr = w.err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for _, w := range p.workers {
		for j, rep := range w.replicas {
			p.set.regs[j].fold(rep)
		}
	}
	return nil
}

// Abort tears the pipeline down without folding: pending batches are
// discarded, workers are joined, and the primaries keep whatever state
// they had before the pipeline started. This is the error path — a read
// that failed partway must not leak a partial fold into the primaries.
// Safe after Close (it becomes a no-op), so `defer p.Abort()` pairs
// naturally with an explicit Close on success.
func (p *Pipeline) Abort() {
	if p.closed {
		return
	}
	p.closed = true
	for i, w := range p.workers {
		p.pending[i] = nil
		close(w.ch)
	}
	for _, w := range p.workers {
		<-w.done
	}
}
