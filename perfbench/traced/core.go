package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"userv6"
	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/netaddr"
	"userv6/internal/report"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// analyzers is `userv6gen analyze`'s analyzer set, with typed handles
// for the report queries.
type analyzers struct {
	set            *core.AnalyzerSet
	uc             *core.UserCentric
	ic4, ic6, ic64 *core.IPCentric
	churn          *core.ChurnAttribution
	countFrom      simtime.Day
}

// newAnalyzers registers the CLI's set: UserCentric, IPCentric at
// v4/32, v6/128 and v6/64, and ChurnAttribution counting from
// countFrom. Every Merge the set's Fold makes runs through merge, which
// receives the analyzer's metric name.
func newAnalyzers(countFrom simtime.Day, merge func(name string, f func())) *analyzers {
	a := &analyzers{set: core.NewAnalyzerSet(), countFrom: countFrom}
	a.uc = core.NewUserCentricFor(false)
	core.AddCommutativeAnalyzer(a.set, a.uc,
		func() *core.UserCentric { return core.NewUserCentricFor(false) },
		func(into, from *core.UserCentric) { merge("user_centric", func() { into.Merge(from) }) })
	addIC := func(name string, fam netaddr.Family, length int) *core.IPCentric {
		ic := core.NewIPCentric(fam, length)
		core.AddCommutativeAnalyzer(a.set, ic,
			func() *core.IPCentric { return core.NewIPCentric(fam, length) },
			func(into, from *core.IPCentric) { merge(name, func() { into.Merge(from) }) })
		return ic
	}
	a.ic4 = addIC("ip_centric_v4_32", netaddr.IPv4, 32)
	a.ic6 = addIC("ip_centric_v6_128", netaddr.IPv6, 128)
	a.ic64 = addIC("ip_centric_v6_64", netaddr.IPv6, 64)
	a.churn = core.NewChurnAttribution(countFrom)
	core.AddCommutativeAnalyzer(a.set, a.churn,
		func() *core.ChurnAttribution { return core.NewChurnAttribution(countFrom) },
		func(into, from *core.ChurnAttribution) { merge("churn", func() { into.Merge(from) }) })
	return a
}

// analyzerNames are the metric suffixes of the set's analyzers, in
// registration order.
var analyzerNames = []string{"user_centric", "ip_centric_v4_32", "ip_centric_v6_128", "ip_centric_v6_64", "churn"}

// members returns the set's primaries in analyzerNames order.
func (a *analyzers) members() []core.Observer {
	return []core.Observer{a.uc, a.ic4, a.ic6, a.ic64, a.churn}
}

func untimed(_ string, f func()) { f() }

// report makes the queries `userv6gen analyze` prints after the
// dataset line and renders them the same way.
func (a *analyzers) report() string {
	var b strings.Builder
	h4, h6 := a.uc.AddrsPerUser(netaddr.IPv4), a.uc.AddrsPerUser(netaddr.IPv6)
	report.NewTable("metric", "IPv4", "IPv6").
		Row("users", int(h4.N()), int(h6.N())).
		Row("median addrs/user", h4.Median(), h6.Median()).
		Row("single-addr users", report.Percent(h4.CDFAt(1)), report.Percent(h6.CDFAt(1))).
		Row("addresses seen", a.ic4.Prefixes(), a.ic6.Prefixes()).
		Row("single-user addrs", report.Percent(a.ic4.UsersPerPrefix().CDFAt(1)), report.Percent(a.ic6.UsersPerPrefix().CDFAt(1))).
		Write(&b)
	fmt.Fprintf(&b, "\nIPv6 /64s: %d (single-user: %s)\n",
		a.ic64.Prefixes(), report.Percent(a.ic64.UsersPerPrefix().CDFAt(1)))
	pat := a.uc.AddrPatterns()
	fmt.Fprintf(&b, "EUI-64 users: %s; transition-protocol users: %s\n",
		report.Percent(pat.EUI64Share), report.Percent(pat.TeredoShare+pat.SixToFourShare))
	bd := a.churn.Breakdown()
	fmt.Fprintf(&b, "address churn (from day %d): %d events — IID rotation %s, subnet move %s, network switch %s\n",
		int(a.countFrom), bd.Total,
		report.Percent(bd.Share(core.IIDRotation)),
		report.Percent(bd.Share(core.SubnetMove)),
		report.Percent(bd.Share(core.NetworkSwitch)))
	return b.String()
}

func mb(bytes int64) float64 { return float64(bytes) / 1e6 }

// observePasses runs each analyzer alone over the held records, then
// the whole set through AnalyzerSet.Observe, measuring what the set
// allocates and keeps. It returns the set's report.
func observePasses(rec *recorder, parent int, out *output, held []telemetry.Observation, countFrom simtime.Day, want uint64) string {
	span := rec.start("core.observe_passes", parent)
	defer rec.end(span)
	for i, name := range analyzerNames {
		obs := newAnalyzers(countFrom, untimed).members()[i]
		var n uint64
		id := rec.start("core.observe."+name, span)
		for _, o := range held {
			obs.Observe(o)
			n++
		}
		out.seconds("core.observe_s."+name, rec.end(id))
		if n != want {
			out.fail("%s observed %d records, want %d", name, n, want)
		}
		runtime.GC()
	}

	a := newAnalyzers(countFrom, untimed)
	var before, observed, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var n uint64
	id := rec.start("core.observe", span)
	for _, o := range held {
		a.set.Observe(o)
		n++
	}
	out.seconds("core.observe_s", rec.end(id))
	runtime.ReadMemStats(&observed)
	runtime.GC()
	runtime.ReadMemStats(&after)
	// held is in both heap readings only while it is still live.
	runtime.KeepAlive(held)
	out.set("core.alloc_mb.observe", mb(int64(observed.TotalAlloc-before.TotalAlloc)), "MB")
	out.set("core.heap_mb.after_observe", mb(int64(after.HeapAlloc)-int64(before.HeapAlloc)), "MB")
	if n != want {
		out.fail("the analyzer set observed %d records, want %d", n, want)
	}
	return a.report()
}

// analyzePass runs the plan `userv6gen analyze -workers N` picks with
// spans around every layer call: the per-part CRC gate, one
// dataset.OpenParallel per part consumed the way ExecutePlan consumes
// it, the fold, and the report queries. It returns the report and the
// time of the part of the pass ExecutePlan also covers (CRC gate,
// reads, fold).
func analyzePass(ctx context.Context, rec *recorder, parent int, out *output, src dataset.Source, workers int, countFrom simtime.Day, want uint64) (string, time.Duration, error) {
	span := rec.start("userv6.analyze", parent)
	defer rec.end(span)
	var foldSpan int
	foldTimes := map[string]time.Duration{}
	a := newAnalyzers(countFrom, func(name string, f func()) {
		id := rec.start("core.merge."+name, foldSpan)
		f()
		foldTimes[name] += rec.end(id)
	})
	id := rec.start("userv6.plan", span)
	plan, err := userv6.PlanSource(src, a.set, userv6.AnalyzeOptions{Workers: workers})
	rec.end(id)
	if err != nil {
		return "", 0, err
	}
	if plan.Mode != core.ModeSequential && plan.Mode != core.ModeFused {
		return "", 0, fmt.Errorf("plan %s: the traced pass mirrors only the sequential and fused modes", plan.Explain())
	}

	var before, after, heap runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()

	parts := src.Parts()
	id = rec.start("dataset.part_crc", span)
	for i, p := range parts {
		exp, ok := src.Expected(i)
		if !ok || exp.CRC32C == "" {
			continue
		}
		got, err := dataset.FileCRC32C(p)
		if err != nil {
			rec.end(id)
			return "", 0, err
		}
		if got != exp.CRC32C {
			out.fail("part %s: file checksum %s, manifest %s", p, got, exp.CRC32C)
		}
	}
	out.seconds("dataset.part_crc_s", rec.end(id))

	// Per worker: time inside the callback, records observed, and the
	// first and last instant of work in the current part (for its span).
	busy := make([]time.Duration, plan.Workers)
	observed := make([]uint64, plan.Workers)
	first := make([]time.Time, plan.Workers)
	last := make([]time.Time, plan.Workers)
	consume := func(w int, feed func(telemetry.Observation)) func(dataset.Batch) error {
		return func(b dataset.Batch) error {
			t := time.Now()
			if first[w].IsZero() {
				first[w] = t
			}
			for _, o := range b.Recs {
				feed(o)
			}
			last[w] = time.Now()
			busy[w] += last[w].Sub(t)
			observed[w] += uint64(len(b.Recs))
			return nil
		}
	}
	replicas := make([]*core.Replica, plan.Workers)
	for i, p := range parts {
		partSpan := rec.start("dataset.part", span)
		clear(first)
		pr, err := dataset.OpenParallel(p, dataset.ParallelOptions{Workers: plan.Workers})
		if err != nil {
			rec.end(partSpan)
			return "", 0, err
		}
		if plan.Mode == core.ModeSequential {
			err = pr.ForEachBatch(ctx, consume(0, a.set.Observe))
		} else {
			err = pr.ForEachWorker(ctx, func(w int) func(dataset.Batch) error {
				if replicas[w] == nil {
					replicas[w] = a.set.NewReplica()
				}
				return consume(w, replicas[w].Observe)
			})
		}
		if err == nil {
			rep, ok := pr.Coverage()
			if !ok {
				out.fail("part %s: read completed without coverage", p)
			}
			if exp, declared := src.Expected(i); ok && declared {
				if cerr := dataset.CheckPartCodecs(exp.Codec, rep.Codecs); cerr != nil {
					out.fail("part %s: %v", p, cerr)
				}
			}
		}
		pr.Close()
		for w := range first {
			if !first[w].IsZero() {
				rec.add("core.worker", partSpan, first[w], last[w])
			}
		}
		rec.end(partSpan)
		if err != nil {
			return "", 0, err
		}
	}

	foldSpan = rec.start("core.fold", span)
	var live []*core.Replica
	for _, r := range replicas {
		if r != nil {
			live = append(live, r)
		}
	}
	a.set.Fold(live...)
	if len(live) == 0 {
		// The sequential plan folds nothing: each analyzer's fold stage
		// is empty, and what is timed is the timer itself.
		for _, name := range analyzerNames {
			id := rec.start("core.merge."+name, foldSpan)
			foldTimes[name] += rec.end(id)
		}
	}
	out.seconds("core.fold_s", rec.end(foldSpan))
	traced := time.Since(start)

	runtime.ReadMemStats(&after)
	out.set("go.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	out.seconds("go.gc_pause_s", time.Duration(after.PauseTotalNs-before.PauseTotalNs))
	runtime.GC()
	runtime.ReadMemStats(&heap)
	// The replicas stay live until the heap is measured, as they do in
	// ExecutePlan until it returns.
	runtime.KeepAlive(live)
	out.set("core.heap_mb.after_fold", mb(int64(heap.HeapAlloc)-int64(before.HeapAlloc)), "MB")
	for _, name := range analyzerNames {
		out.seconds("core.fold_s."+name, foldTimes[name])
	}

	minBusy, maxBusy := busy[0], busy[0]
	var total uint64
	for w := range busy {
		minBusy, maxBusy = min(minBusy, busy[w]), max(maxBusy, busy[w])
		total += observed[w]
	}
	out.seconds("core.worker_busy_s.max", maxBusy)
	out.seconds("core.worker_busy_s.min", minBusy)
	if total != want {
		out.fail("the %s pass observed %d records, want %d", plan.Mode, total, want)
	}

	id = rec.start("core.query", span)
	report := a.report()
	out.seconds("core.query_s", rec.end(id))
	return report, traced, nil
}

// executePass runs the same plan through userv6.ExecutePlan with no
// spans inside: the untraced time the traced pass is compared with.
func executePass(ctx context.Context, rec *recorder, parent int, out *output, src dataset.Source, workers int, countFrom simtime.Day) (string, error) {
	a := newAnalyzers(countFrom, untimed)
	plan, err := userv6.PlanSource(src, a.set, userv6.AnalyzeOptions{Workers: workers})
	if err != nil {
		return "", err
	}
	id := rec.start("userv6.execute", parent)
	_, err = userv6.ExecutePlan(ctx, src, a.set, plan)
	out.seconds("userv6.execute_s", rec.end(id))
	if err != nil {
		return "", err
	}
	return a.report(), nil
}
