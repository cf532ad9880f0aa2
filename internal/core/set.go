package core

// An AnalyzerSet names the analyzers a run wants populated from one
// pass over a telemetry stream. Every registration carries a Merge, so
// the set can be fed three ways that leave the primaries holding
// identical state: directly (the sequential reference), through a
// FanOut that gives each analyzer's replica the whole stream on its own
// goroutine (see fanout.go), or through Replicas fed disjoint partitions
// and folded back.

import (
	"fmt"

	"userv6/internal/telemetry"
)

// Observer is the streaming-analyzer interface every core analyzer
// satisfies: consume one observation, answer queries later.
type Observer interface {
	Observe(telemetry.Observation)
}

// AnalyzerSet is a named collection of analyzers to populate from one
// pass over a telemetry stream. Register each analyzer with
// AddCommutativeAnalyzer, then feed the set directly, run a FanOut over
// it, or fold Replicas into it.
type AnalyzerSet struct {
	regs []registration
}

type registration struct {
	name    string
	primary Observer
	mk      func() Observer
	fold    func(replica Observer)
	// adopt moves a replica's state into the primary: it swaps the two
	// structs and folds the primary's old state back in — exact because
	// the Merge is commutative, and nearly free when the primary started
	// empty. The replica is consumed: afterwards its state is
	// unspecified.
	adopt  func(replica Observer)
	filter func(telemetry.Observation) bool
}

// NewAnalyzerSet returns an empty set.
func NewAnalyzerSet() *AnalyzerSet { return &AnalyzerSet{} }

// Len returns the number of registered analyzers.
func (s *AnalyzerSet) Len() int { return len(s.regs) }

// AddCommutativeAnalyzer registers primary with the set. mk constructs
// a fresh replica configured identically to primary (same restriction,
// window, prefix lengths, ...); fold merges a replica's state into the
// first argument — an analyzer's Merge method expression, e.g.
// (*UserCentric).Merge, fits directly.
//
// Registering declares that the analyzer's accumulated state is
// invariant under observation order and under how the stream is
// partitioned across replicas before folding: feeding any permutation
// of the same multiset of observations, or splitting it arbitrarily
// (not just user-disjointly) across replicas and folding, must leave
// state identical to the in-order sequential feed. Analyzers whose
// state is a pure set- or lattice-fold qualify: set-shaped dedup
// (UserCentric's and IPCentric's (user, prefix) pair sets), min/OR
// folds (Lifespans), sum/OR folds (Prevalence), and min-day first-sight
// tuples (ChurnAttribution). An analyzer that inspects transitions
// between consecutive observations at Observe time would not.
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

// AddCommutativeAnalyzerFiltered is AddCommutativeAnalyzer with a
// pre-filter: only observations for which filter returns true reach
// this analyzer (nil accepts everything). The filter runs on the
// analyzer goroutines, so it must be pure; a pure filter preserves
// commutativity (it only thins the multiset).
func AddCommutativeAnalyzerFiltered[U any, T interface {
	*U
	Observer
}](s *AnalyzerSet, primary T, mk func() T, fold func(into, from T), filter func(telemetry.Observation) bool) {
	s.regs = append(s.regs, registration{
		name:    fmt.Sprintf("%T", primary),
		primary: primary,
		mk:      func() Observer { return mk() },
		fold:    func(replica Observer) { fold(primary, replica.(T)) },
		adopt: func(replica Observer) {
			r := replica.(T)
			*primary, *r = *r, *primary
			fold(primary, r)
		},
		filter: filter,
	})
}

// Observe feeds one observation to every registered primary directly —
// the sequential path, and the reference every parallel feed must
// match.
func (s *AnalyzerSet) Observe(o telemetry.Observation) {
	for i := range s.regs {
		r := &s.regs[i]
		if r.filter == nil || r.filter(o) {
			r.primary.Observe(o)
		}
	}
}

// Replica is an independent copy of every registered analyzer, for
// producers that already partition the stream: each partition feeds its
// own Replica with no routing or locking, and Fold merges them back
// into the primaries.
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

// Fold merges the replicas' state into the set's primaries, in argument
// order. The first replica is adopted by swap instead of copied (see
// registration.adopt). Because every registration is commutative, any
// split of the stream across replicas folds exactly. Fold consumes the
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

// WorkerPanicError reports a panic recovered on a fan-out analyzer
// goroutine. Worker is the registration index and Analyzer the
// registration's type name.
type WorkerPanicError struct {
	Worker   int
	Analyzer string
	Value    any
	Stack    []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("core: analyzer %d (%s) panicked: %v", e.Worker, e.Analyzer, e.Value)
}
