package telemetry

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// v2Stream encodes obs into a framed v2 stream with the given block size.
func v2Stream(t testing.TB, obs []Observation, perBlock int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterV2Blocks(&buf, perBlock)
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1Stream encodes obs into a legacy v1 stream.
func v1Stream(t testing.TB, obs []Observation) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainBlocks reads every block, reusing one payload buffer, and
// decodes the records.
func drainBlocks(t *testing.T, data []byte) []Observation {
	t.Helper()
	br := NewBlockReader(bytes.NewReader(data))
	var out []Observation
	var buf []byte
	for {
		blk, err := br.Next(buf)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err = blk.Decode(out)
		if err != nil {
			t.Fatal(err)
		}
		buf = blk.Payload
	}
}

func TestBlockReaderMatchesReader(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		n    int
	}{
		{"v2-multi-block", v2Stream(t, benchObs(2500), 1000), 2500},
		{"v2-partial-tail", v2Stream(t, benchObs(1500), 1024), 1500},
		{"v2-empty", v2Stream(t, nil, 1024), 0},
		{"v1", v1Stream(t, benchObs(3000)), 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []Observation
			if err := NewReader(bytes.NewReader(tc.data)).ForEach(func(o Observation) {
				want = append(want, o)
			}); err != nil {
				t.Fatal(err)
			}
			got := drainBlocks(t, tc.data)
			if len(got) != tc.n || len(want) != tc.n {
				t.Fatalf("got %d / want %d records, expected %d", len(got), len(want), tc.n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestBlockReaderIndexesSequential(t *testing.T) {
	data := v2Stream(t, benchObs(4096), 512)
	br := NewBlockReader(bytes.NewReader(data))
	for want := 0; ; want++ {
		blk, err := br.Next(nil)
		if err == io.EOF {
			if want != 8 {
				t.Fatalf("saw %d blocks, want 8", want)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if blk.Index != want {
			t.Fatalf("block index %d, want %d", blk.Index, want)
		}
		if !blk.Checksummed() {
			t.Fatal("v2 block reports no checksum")
		}
		if err := blk.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBlockReaderDetectsCorruptPayload(t *testing.T) {
	data := v2Stream(t, benchObs(2048), 1024)
	// Flip a payload byte in the second block: the scan must still hand
	// the block over, and Verify must reject it with its index.
	off := 4 + blockHeaderSize + 1024*recordSize + blockHeaderSize + 100
	data[off] ^= 0xff

	br := NewBlockReader(bytes.NewReader(data))
	b0, err := br.Next(nil)
	if err != nil || b0.Verify() != nil {
		t.Fatalf("first block should verify: %v", err)
	}
	b1, err := br.Next(nil)
	if err != nil {
		t.Fatalf("scan must not fail on a bad checksum: %v", err)
	}
	verr := b1.Verify()
	var ce *CorruptError
	if !errors.As(verr, &ce) || ce.Block != 1 {
		t.Fatalf("want *CorruptError for block 1, got %v", verr)
	}
	if _, derr := b1.Decode(nil); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("Decode must reject the block: %v", derr)
	}
}

func TestBlockReaderBadMarker(t *testing.T) {
	data := v2Stream(t, benchObs(100), 50)
	copy(data[4:], "junk")
	_, err := NewBlockReader(bytes.NewReader(data)).Next(nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestBlockReaderV1TruncatedTail(t *testing.T) {
	data := v1Stream(t, benchObs(10))
	data = data[:len(data)-7] // tear the last record

	br := NewBlockReader(bytes.NewReader(data))
	blk, err := br.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Count != 9 {
		t.Fatalf("recovered %d complete records, want 9", blk.Count)
	}
	if _, err := br.Next(blk.Payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn tail must yield ErrCorrupt, got %v", err)
	}
	// The error is sticky.
	if _, err := br.Next(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sticky error lost: %v", err)
	}
}

// SalvageRawBlocks must report exactly what Salvage reports and deliver
// the same records, in intact blocks indexed from 0, both on intact and
// damaged streams.
func TestSalvageBlocksMatchesSalvage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"intact", func(b []byte) []byte { return b }},
		{"corrupt-middle", func(b []byte) []byte {
			b[4+blockHeaderSize+512*recordSize+blockHeaderSize+9] ^= 0x40
			return b
		}},
		{"torn-tail", func(b []byte) []byte { return b[:len(b)-33] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(v2Stream(t, benchObs(2000), 512))

			var want []Observation
			wantRep, werr := SalvageBytes(data, func(o Observation) { want = append(want, o) })

			var got []Observation
			next := 0
			gotRep, gerr := SalvageRawBlocks(data, func(b RawBlock, decoded []byte) {
				if b.Index != next {
					t.Fatalf("block index %d, want %d", b.Index, next)
				}
				next++
				before := len(got)
				got = AppendRecords(got, decoded)
				if len(got)-before != b.Count {
					t.Fatalf("payload decoded to %d records, header says %d", len(got)-before, b.Count)
				}
			})
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error mismatch: %v vs %v", werr, gerr)
			}
			if !wantRep.Equal(gotRep) {
				t.Fatalf("reports differ:\n salvage: %+v\n  blocks: %+v", wantRep, gotRep)
			}
			if len(want) != len(got) {
				t.Fatalf("recovered %d vs %d records", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d differs", i)
				}
			}
		})
	}
}

// A v1 stream is delivered in bounded pseudo-blocks but still reported
// as a single block.
func TestSalvageBlocksV1Chunks(t *testing.T) {
	data := v1Stream(t, benchObs(2*DefaultBlockRecords+100))
	visits := 0
	total := 0
	rep, err := SalvageRawBlocks(data, func(b RawBlock, decoded []byte) {
		if b.Index != visits {
			t.Fatalf("pseudo-block index %d, want %d", b.Index, visits)
		}
		visits++
		total += b.Count
		if b.Count > DefaultBlockRecords || len(decoded) != b.Count*recordSize {
			t.Fatalf("pseudo-block of %d records (%d bytes) exceeds cap or is torn", b.Count, len(decoded))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits != 3 || total != 2*DefaultBlockRecords+100 {
		t.Fatalf("visits=%d total=%d", visits, total)
	}
	if rep.Blocks != 1 || rep.Records != uint64(total) {
		t.Fatalf("report %+v", rep)
	}
}
