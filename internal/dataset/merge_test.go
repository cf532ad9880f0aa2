package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"userv6/internal/faultio"
	"userv6/internal/retry"
	"userv6/internal/telemetry"
)

// writePart writes obs into a new dataset at path and returns the
// part description a sharded exporter would record for it.
func writePart(t *testing.T, path string, meta Meta, obs []telemetry.Observation) PartInfo {
	t.Helper()
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	crc, err := FileCRC32C(path)
	if err != nil {
		t.Fatal(err)
	}
	return PartInfo{
		Name: filepath.Base(path), Kind: PartKindBenign,
		Records: w.Records(), Blocks: w.Blocks(), CRC32C: crc,
	}
}

// TestMergeByteIdenticalToSingleWriter: folding four shards must
// reproduce the single-writer file exactly — the acceptance bar for
// sharded export.
func TestMergeByteIdenticalToSingleWriter(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 11, Users: 5000, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(5000)

	single := filepath.Join(dir, "single.uv6")
	writePart(t, single, meta, obs)

	var parts []string
	per := len(obs) / 4
	for i := 0; i < 4; i++ {
		lo, hi := i*per, (i+1)*per
		if i == 3 {
			hi = len(obs)
		}
		p := filepath.Join(dir, fmt.Sprintf("part-%04d.uv6", i))
		writePart(t, p, meta, obs[lo:hi])
		parts = append(parts, p)
	}

	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			merged := filepath.Join(dir, fmt.Sprintf("merged-%d.uv6", workers))
			rep, err := Merge(merged, meta, parts, &MergeOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete {
				t.Fatalf("merge of intact parts reported incomplete: %+v", rep.Parts)
			}
			if rep.Records != uint64(len(obs)) {
				t.Fatalf("merged %d records, want %d", rep.Records, len(obs))
			}
			got, err := os.ReadFile(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("merged dataset differs from single-writer output (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestMergeRecoversDamagedPart: one part with a flipped payload byte
// loses exactly its corrupt block; every intact block of every part is
// recovered and the coverage report says so.
func TestMergeRecoversDamagedPart(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 5, Users: 5000, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(5000) // 1250 records per part: blocks of 1024 + 226

	var parts []string
	expected := map[string]PartInfo{}
	for i := 0; i < 4; i++ {
		p := filepath.Join(dir, fmt.Sprintf("part-%04d.uv6", i))
		info := writePart(t, p, meta, obs[i*1250:(i+1)*1250])
		if info.Blocks != 2 {
			t.Fatalf("part %d has %d blocks, test expects 2", i, info.Blocks)
		}
		expected[info.Name] = info
		parts = append(parts, p)
	}

	// Flip one byte inside part 2's first block payload.
	victim := parts[2]
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+4+16+37] ^= 0x40
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(dir, "merged.uv6")
	rep, err := Merge(merged, meta, parts, &MergeOptions{Expected: expected})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("merge with a damaged part reported complete")
	}
	// 4 parts x 2 blocks, one lost: 7 of 8 blocks, 5000-1024 records.
	if rep.Records != 5000-1024 {
		t.Fatalf("merged %d records, want %d", rep.Records, 5000-1024)
	}
	for i, cov := range rep.Parts {
		if i == 2 {
			if cov.BlocksRecovered != 1 || cov.BlocksExpected != 2 || cov.CorruptBlocks != 1 {
				t.Fatalf("damaged part coverage = %+v", cov)
			}
			if cov.Coverage() != 0.5 {
				t.Fatalf("damaged part coverage fraction = %v", cov.Coverage())
			}
			if cov.ChecksumOK {
				t.Fatal("damaged part passed its whole-file checksum")
			}
			continue
		}
		if !cov.Intact() || cov.BlocksRecovered != 2 || cov.Records != 1250 {
			t.Fatalf("intact part %d coverage = %+v", i, cov)
		}
	}

	// Every record of every intact block is in the merged output, in
	// order: parts 0, 1, 3 complete plus part 2's trailing 226.
	r, err := Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := append(append([]telemetry.Observation{}, obs[:2*1250]...), obs[2*1250+1024:]...)
	i := 0
	if err := r.ForEach(func(o telemetry.Observation) {
		if o != want[i] {
			t.Fatalf("record %d mismatch after merge", i)
		}
		i++
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("merged output has %d records, want %d", i, len(want))
	}

	// Strict mode refuses the damaged part.
	if _, err := Merge(filepath.Join(dir, "strict.uv6"), meta, parts, &MergeOptions{Expected: expected, Strict: true}); err == nil {
		t.Fatal("strict merge of a damaged part should fail")
	}
}

// TestMergeRetriesTransientIO: transient read errors injected through
// faultio are retried under the shared policy with capped exponential
// backoff and never duplicate records.
func TestMergeRetriesTransientIO(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 9, Users: 100, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(600)
	p0 := filepath.Join(dir, "part-0000.uv6")
	p1 := filepath.Join(dir, "part-0001.uv6")
	writePart(t, p0, meta, obs[:300])
	writePart(t, p1, meta, obs[300:])

	in := faultio.New(faultio.OS, 1)
	if err := in.Arm("flaky@part-0001.uv6:readfile:n=1:x=2:err"); err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	pol := retry.Policy{
		Base: 10 * time.Millisecond, Max: 15 * time.Millisecond, NoJitter: true,
		Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}

	merged := filepath.Join(dir, "merged.uv6")
	rep, err := Merge(merged, meta, []string{p0, p1}, &MergeOptions{FS: in, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Records != 600 {
		t.Fatalf("retried merge: complete=%v records=%d", rep.Complete, rep.Records)
	}
	if rep.Parts[0].Retries != 0 || rep.Parts[1].Retries != 2 {
		t.Fatalf("retry counts = %d, %d", rep.Parts[0].Retries, rep.Parts[1].Retries)
	}
	// Exponential backoff, capped: 10ms then min(20ms, 15ms).
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 15*time.Millisecond {
		t.Fatalf("backoff schedule = %v", slept)
	}

	// A part that never stops failing exhausts its retries and fails
	// the merge.
	in2 := faultio.New(faultio.OS, 1)
	if err := in2.Arm("part-0001.uv6:readfile:x=-1:err"); err != nil {
		t.Fatal(err)
	}
	pol.MaxRetries = 2
	if _, err := Merge(filepath.Join(dir, "fail.uv6"), meta, []string{p0, p1}, &MergeOptions{FS: in2, Retry: pol}); err == nil {
		t.Fatal("persistently failing part should fail the merge")
	}
	// A missing part fails immediately, without retries.
	slept = nil
	if _, err := Merge(filepath.Join(dir, "missing.uv6"), meta, []string{filepath.Join(dir, "nope.uv6")}, &MergeOptions{Retry: pol}); err == nil {
		t.Fatal("missing part should fail the merge")
	} else if len(slept) != 0 {
		t.Fatalf("missing part slept %v before failing", slept)
	}
}

// TestMergeCtxCancelled: a cancelled context aborts the merge instead
// of sitting out its backoff schedule.
func TestMergeCtxCancelled(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 9, Users: 100, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(100)
	p0 := filepath.Join(dir, "part-0000.uv6")
	writePart(t, p0, meta, obs)

	in := faultio.New(faultio.OS, 1)
	if err := in.Arm("part-0000.uv6:readfile:x=-1:err"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := MergeCtx(ctx, filepath.Join(dir, "out.uv6"), meta, []string{p0},
		&MergeOptions{FS: in, Retry: retry.Policy{MaxRetries: 10, Base: time.Hour}})
	if err == nil {
		t.Fatal("cancelled merge succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled merge blocked %v", elapsed)
	}
}

// cancelOnWriteFS cancels a context on the first stream write to any
// file it creates. The dataset header goes out with WriteAt at create
// time, so the first Write is the output writer flushing its first
// blocks: the merge is past the header and inside a part.
type cancelOnWriteFS struct {
	faultio.FS
	cancel context.CancelFunc
}

func (c cancelOnWriteFS) Create(name string) (faultio.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return cancelOnWriteFile{File: f, cancel: c.cancel}, nil
}

type cancelOnWriteFile struct {
	faultio.File
	cancel context.CancelFunc
}

func (f cancelOnWriteFile) Write(b []byte) (int, error) {
	f.cancel()
	return f.File.Write(b)
}

// TestMergeCtxCancelledMidPart: cancellation inside a part stops that
// part's block pool; the merge returns context.Canceled and leaves no
// output file behind, finished or temporary.
func TestMergeCtxCancelledMidPart(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 9, Users: 100, FromDay: 0, ToDay: 6, Sample: "all"}
	part := filepath.Join(dir, "part-0000.uv6")
	if info := writePart(t, part, meta, sample(40*1024)); info.Blocks != 40 {
		t.Fatalf("part has %d blocks, test expects 40", info.Blocks)
	}

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		out := filepath.Join(dir, fmt.Sprintf("out-%d.uv6", workers))
		_, err := MergeCtx(ctx, out, meta, []string{part},
			&MergeOptions{FS: cancelOnWriteFS{FS: faultio.OS, cancel: cancel}, Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		for _, p := range []string{out, out + ".tmp"} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("workers=%d: cancelled merge left %s (stat err %v)", workers, filepath.Base(p), err)
			}
		}
	}
}
