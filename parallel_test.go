package userv6

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

func TestGenerateParallelCoversAllUsers(t *testing.T) {
	sim := NewSim(DefaultScenario(1_000))
	seen := make([]map[uint64]bool, 0)
	var serialCount int
	sim.Benign.GenerateDay(84, func(telemetry.Observation) { serialCount++ })

	var total atomic.Int64
	err := sim.GenerateParallelSinksCtx(context.Background(), 84, 84, 5, func(_, _, _ int) (telemetry.EmitFunc, func(error) error) {
		m := make(map[uint64]bool)
		seen = append(seen, m)
		return func(o telemetry.Observation) {
			m[o.UserID] = true
			total.Add(1)
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != int64(serialCount) {
		t.Fatalf("parallel emitted %d observations, serial %d", total.Load(), serialCount)
	}
	// Shards are disjoint.
	union := make(map[uint64]bool)
	sum := 0
	for _, m := range seen {
		sum += len(m)
		for uid := range m {
			union[uid] = true
		}
	}
	if sum != len(union) {
		t.Fatalf("shards overlap: %d vs %d distinct", sum, len(union))
	}
}

func TestUserCentricMerge(t *testing.T) {
	a := core.NewUserCentricFor(false)
	b := core.NewUserCentricFor(false)
	o1 := telemetry.Observation{UserID: 1, Addr: netaddr.MustParseAddr("2001:db8::1"), Requests: 1}
	o2 := telemetry.Observation{UserID: 1, Addr: netaddr.MustParseAddr("2001:db8::2"), Requests: 1}
	o3 := telemetry.Observation{UserID: 2, Addr: netaddr.MustParseAddr("10.0.0.1"), Requests: 1}
	a.Observe(o1)
	b.Observe(o2)
	b.Observe(o1) // overlap: must not double-count
	b.Observe(o3)
	a.Merge(b)
	if a.Users() != 2 {
		t.Fatalf("users = %d", a.Users())
	}
	h := a.AddrsPerUser(netaddr.IPv6)
	if h.N() != 1 || h.Max() != 2 {
		t.Fatalf("v6 hist N=%d max=%d", h.N(), h.Max())
	}
	if a.AddrsPerUser(netaddr.IPv4).N() != 1 {
		t.Fatal("v4 user lost in merge")
	}
}

// An injected consumer panic must surface as a *ShardPanicError naming
// the shard's user range — not crash the process — and the sibling
// shards must be cancelled rather than run to completion.
func TestGenerateParallelCtxPanicIsolated(t *testing.T) {
	sim := NewSim(DefaultScenario(2_000))
	from, to := AnalysisWeek()

	const panicUser = 777
	var shardIdx atomic.Int32
	err := sim.GenerateParallelSinksCtx(context.Background(), from, to, 4, func(_, _, _ int) (telemetry.EmitFunc, func(error) error) {
		shardIdx.Add(1)
		return func(o telemetry.Observation) {
			if o.UserID == panicUser {
				panic("injected consumer fault")
			}
		}, nil
	})
	if err == nil {
		t.Fatal("injected panic did not surface as an error")
	}
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ShardPanicError, got %T: %v", err, err)
	}
	if pe.Value != "injected consumer fault" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if panicUser < pe.UserLo || panicUser >= pe.UserHi {
		t.Fatalf("shard user range [%d,%d) does not contain panicking user %d",
			pe.UserLo, pe.UserHi, panicUser)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("users [%d,%d)", pe.UserLo, pe.UserHi)) {
		t.Fatalf("error lacks user-range attribution: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

// Sibling shards observe the cancellation triggered by a fault: they
// stop early instead of generating their full ranges.
func TestGenerateParallelCtxSiblingsCancelled(t *testing.T) {
	sim := NewSim(DefaultScenario(4_000))
	from, to := AnalysisWeek()

	var full int64
	sim.Benign.Generate(from, to, func(telemetry.Observation) { full++ })

	var seen atomic.Int64
	err := sim.GenerateParallelSinksCtx(context.Background(), from, to, 4, func(_, _, _ int) (telemetry.EmitFunc, func(error) error) {
		first := true
		return func(telemetry.Observation) {
			seen.Add(1)
			if first {
				first = false
				panic("fail fast")
			}
		}, nil
	})
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ShardPanicError, got %v", err)
	}
	// All four shards die on their first observation batch; the run
	// must emit a small fraction of the full stream, not most of it.
	if seen.Load() > full/2 {
		t.Fatalf("siblings kept generating after fault: %d of %d observations", seen.Load(), full)
	}
}

// External cancellation stops generation within one (user, day) batch
// and propagates context.Canceled.
func TestGenerateParallelCtxCancellation(t *testing.T) {
	sim := NewSim(DefaultScenario(4_000))
	from, to := AnalysisWeek()

	var full int64
	sim.Benign.Generate(from, to, func(telemetry.Observation) { full++ })

	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	err := sim.GenerateParallelSinksCtx(ctx, from, to, 4, func(_, _, _ int) (telemetry.EmitFunc, func(error) error) {
		return func(telemetry.Observation) {
			if seen.Add(1) == 100 {
				cancel()
			}
		}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if seen.Load() > full/2 {
		t.Fatalf("cancellation ignored: %d of %d observations generated", seen.Load(), full)
	}
}

// An already-cancelled context generates nothing.
func TestGenerateParallelCtxPreCancelled(t *testing.T) {
	sim := NewSim(DefaultScenario(500))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var seen atomic.Int64
	err := sim.GenerateParallelSinksCtx(ctx, 84, 84, 2, func(_, _, _ int) (telemetry.EmitFunc, func(error) error) {
		return func(telemetry.Observation) { seen.Add(1) }, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if seen.Load() != 0 {
		t.Fatalf("pre-cancelled run emitted %d observations", seen.Load())
	}
}

// The serial ctx variants mirror their errorless counterparts.
func TestGenerateCtxMatchesGenerate(t *testing.T) {
	sim := NewSim(DefaultScenario(500))
	var a, b int
	sim.Generate(84, 85, func(telemetry.Observation) { a++ })
	if err := sim.GenerateCtx(context.Background(), 84, 85, func(telemetry.Observation) { b++ }); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("GenerateCtx emitted %d observations, Generate %d", b, a)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	if err := sim.GenerateCtx(ctx, simtime.Day(84), simtime.Day(85), func(telemetry.Observation) { n++ }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n != 0 {
		t.Fatalf("cancelled GenerateCtx emitted %d observations", n)
	}
}
