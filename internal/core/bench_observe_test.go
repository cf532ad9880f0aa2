package core

import (
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/telemetry"
)

// benchObservations builds a reusable mixed stream: many users across a
// few thousand /64s, mostly IPv6 with an IPv4 minority, the shape the
// analyzers see from real generation.
func benchObservations(n int) []telemetry.Observation {
	src := rng.New(3)
	obs := make([]telemetry.Observation, n)
	for i := range obs {
		o := telemetry.Observation{
			Day:      0,
			UserID:   uint64(src.Intn(50_000)),
			ASN:      netmodel.ASN(100 + src.Intn(64)),
			Requests: uint32(1 + src.Intn(20)),
		}
		if src.Intn(5) == 0 {
			o.Addr = netaddr.AddrFrom4(0x0a00_0000 | uint32(src.Intn(1<<16)))
		} else {
			o.Addr = netaddr.AddrFrom6(0x2001_0db8_0000_0000|uint64(src.Intn(4096)), src.Uint64())
		}
		obs[i] = o
	}
	return obs
}

// benchObserveRecords is the fixed stream one benchmark op observes:
// enough records that a single op (the gate runs at -benchtime=1x)
// measures steady per-record work rather than one cold call.
const benchObserveRecords = 8192

// BenchmarkUserCentricObserve measures the user-centric address
// accounting — the dominant analyzer in the fan-out — as one op that
// observes all benchObserveRecords records into a fresh analyzer.
func BenchmarkUserCentricObserve(b *testing.B) {
	obs := benchObservations(benchObserveRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uc := NewUserCentric()
		for _, o := range obs {
			uc.Observe(o)
		}
	}
}

// BenchmarkIPCentricObserve measures prefix attribution at /64, the
// trie-backed half of the analysis hot path, as one op that observes
// all benchObserveRecords records into a fresh analyzer.
func BenchmarkIPCentricObserve(b *testing.B) {
	obs := benchObservations(benchObserveRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic := NewIPCentric(netaddr.IPv6, 64)
		for _, o := range obs {
			ic.Observe(o)
		}
	}
}
