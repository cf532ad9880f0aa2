package dataset

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"userv6/internal/telemetry"
)

// readSequential drains a dataset with the plain Reader.
func readSequential(t *testing.T, path string) []telemetry.Observation {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []telemetry.Observation
	if err := r.ForEach(func(o telemetry.Observation) { out = append(out, o) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// readParallel drains a dataset with a ParallelReader in ordered mode.
func readParallel(t *testing.T, path string, opts ParallelOptions) []telemetry.Observation {
	t.Helper()
	pr, err := OpenParallel(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	var out []telemetry.Observation
	if err := pr.ForEachBatch(context.Background(), func(b Batch) error {
		out = append(out, b.Recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameRecords(t *testing.T, got, want []telemetry.Observation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func sortObs(obs []telemetry.Observation) {
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		if a.UserID != b.UserID {
			return a.UserID < b.UserID
		}
		return a.Requests < b.Requests
	})
}

func TestParallelReaderOrderedMatchesSequential(t *testing.T) {
	in := sample(5000) // ~5 default-size blocks
	path := writeDataset(t, in)
	want := readSequential(t, path)
	for _, workers := range []int{1, 4} {
		got := readParallel(t, path, ParallelOptions{Workers: workers})
		sameRecords(t, got, want)
	}
}

func TestParallelReaderMeta(t *testing.T) {
	path := writeDataset(t, sample(100))
	pr, err := OpenParallel(path, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if pr.Raw() {
		t.Fatal("headered dataset reported as raw")
	}
	if m := pr.Meta(); m.Seed != 3 || m.Records != 100 || !m.Complete {
		t.Fatalf("meta = %+v", m)
	}
}

func TestParallelReaderBatchIndexesOrdered(t *testing.T) {
	path := writeDataset(t, sample(4500))
	pr, err := OpenParallel(path, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	next := 0
	if err := pr.ForEachBatch(context.Background(), func(b Batch) error {
		if b.Index != next {
			t.Fatalf("batch index %d, want %d", b.Index, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != 5 {
		t.Fatalf("saw %d batches, want 5", next)
	}
}

func TestParallelReaderRawStream(t *testing.T) {
	// A headerless file produced by the raw telemetry writer.
	in := sample(2500)
	path := filepath.Join(t.TempDir(), "raw.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWriterV2(f)
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	pr, err := OpenParallel(path, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	raw := pr.Raw()
	pr.Close()
	if !raw {
		t.Fatal("raw stream not detected")
	}
	sameRecords(t, readParallel(t, path, ParallelOptions{Workers: 4}), in)
}

// A damaged stream in strict mode fails the read with the sequential
// reader's error, whether the damage is found by a decode worker (a
// checksum flip) or by the frame scan itself (a torn tail). ForEachBatch
// first delivers exactly the records Reader.ForEach delivers before
// failing, then the same *CorruptError; ForEachWorker, which has no
// ordered delivery and so no prefix guarantee, fails with the same
// error class.
func TestParallelReaderStrictCorruptBlock(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		block  int
	}{
		// Past the dataset header, the stream signature and two
		// default-size blocks: block 2's payload fails its checksum.
		{"checksum-flip", func(b []byte) []byte {
			b[headerSize+4+2*(16+1024*40)+16+200] ^= 0x01
			return b
		}, 2},
		// The last frame (block 4 of 5) ends early: the scan cannot
		// read its payload.
		{"torn-tail", func(b []byte) []byte { return b[:len(b)-41] }, 4},
	} {
		raw, err := os.ReadFile(writeDataset(t, sample(5000)))
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(t.TempDir(), "bad.uv6")
		if err := os.WriteFile(bad, tc.mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}

		// Sequential reference: records recovered before the failure.
		var want []telemetry.Observation
		r, err := Open(bad)
		if err != nil {
			t.Fatal(err)
		}
		serr := r.ForEach(func(o telemetry.Observation) { want = append(want, o) })
		r.Close()
		var sce *telemetry.CorruptError
		if !errors.As(serr, &sce) || sce.Block != tc.block {
			t.Fatalf("%s: sequential reader: want *CorruptError for block %d, got %v", tc.name, tc.block, serr)
		}

		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				pr, err := OpenParallel(bad, ParallelOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer pr.Close()
				var got []telemetry.Observation
				perr := pr.ForEachBatch(context.Background(), func(b Batch) error {
					got = append(got, b.Recs...)
					return nil
				})
				var ce *telemetry.CorruptError
				if !errors.As(perr, &ce) || ce.Block != sce.Block || ce.Offset != sce.Offset {
					t.Fatalf("ForEachBatch: want %v, got %v", serr, perr)
				}
				sameRecords(t, got, want)
				if _, ok := pr.Coverage(); ok {
					t.Fatal("failed strict read reported coverage")
				}

				pw, err := OpenParallel(bad, ParallelOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer pw.Close()
				werr := pw.ForEachWorker(context.Background(), func(int) func(Batch) error {
					return func(Batch) error { return nil }
				})
				if !errors.As(werr, &ce) || ce.Block != sce.Block {
					t.Fatalf("ForEachWorker: want *CorruptError for block %d, got %v", sce.Block, werr)
				}
			})
		}
	}
}

// Tolerant parallel reads must recover exactly what Salvage recovers
// and report identical coverage.
func TestParallelReaderTolerantMatchesSalvage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"intact", func(b []byte) []byte { return b }},
		{"corrupt-middle", func(b []byte) []byte {
			b[headerSize+4+(16+1024*40)+16+99] ^= 0x80
			return b
		}},
		{"torn-tail", func(b []byte) []byte { return b[:len(b)-41] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeDataset(t, sample(5000))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(t.TempDir(), "bad.uv6")
			if err := os.WriteFile(bad, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			var want []telemetry.Observation
			wantRep, err := Salvage(bad, func(o telemetry.Observation) { want = append(want, o) })
			if err != nil {
				t.Fatal(err)
			}

			got := readParallel(t, bad, ParallelOptions{Workers: 4, Tolerant: true})
			sameRecords(t, got, want)

			// Coverage accounting must match the sequential salvage walk.
			pr, err := OpenParallel(bad, ParallelOptions{Workers: 4, Tolerant: true})
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Close()
			if err := pr.ForEachBatch(context.Background(), func(Batch) error { return nil }); err != nil {
				t.Fatal(err)
			}
			rep, ok := pr.Coverage()
			if !ok {
				t.Fatal("no coverage after tolerant read")
			}
			if !rep.Equal(wantRep.Stream) {
				t.Fatalf("coverage differs:\nparallel: %+v\n salvage: %+v", rep, wantRep.Stream)
			}
		})
	}
}

func TestParallelReaderCallbackError(t *testing.T) {
	path := writeDataset(t, sample(5000))
	boom := errors.New("boom")
	pr, err := OpenParallel(path, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	calls := 0
	err = pr.ForEachBatch(context.Background(), func(Batch) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want callback error, got %v", err)
	}
}

func TestParallelReaderContextCancel(t *testing.T) {
	path := writeDataset(t, sample(5000))
	pr, err := OpenParallel(path, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	err = pr.ForEachBatch(ctx, func(b Batch) error {
		cancel() // fire mid-read
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestParallelReaderSingleUse(t *testing.T) {
	path := writeDataset(t, sample(100))
	pr, err := OpenParallel(path, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if err := pr.ForEachBatch(context.Background(), func(Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := pr.ForEachBatch(context.Background(), func(Batch) error { return nil }); err == nil {
		t.Fatal("second consume must fail")
	}
	noop := func(int) func(Batch) error { return func(Batch) error { return nil } }
	if err := pr.ForEachWorker(context.Background(), noop); err == nil {
		t.Fatal("ForEachWorker after consume must fail")
	}
}
