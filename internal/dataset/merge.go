// Merge folds the parts of a sharded export (or any list of dataset
// files) into one canonical dataset. Records are re-framed through a
// fresh writer in part order, so merging the parts of a sharded run
// reproduces, byte for byte, the dataset a single-writer run at the
// same configuration would have written. Each input goes through the
// salvage path: corrupt blocks cost only themselves, and the report
// says exactly how much of each part survived — the tolerant-merge
// shape the hitlist pipelines apply to partially damaged corpora.
//
// Each part runs through the package's one block pool (parallel.go)
// exactly like a tolerant ordered read: the salvage scan walks the part
// sequentially, decode workers fan record decoding out, and the ordered
// sink hands blocks to the output writer in stream order. Two fast
// paths keep the pass from being the pipeline's slowest: that parallel
// decode, and a passthrough the scan plans per block — a stored block
// whose frame is provably what the output writer would emit at that
// position (boundary-aligned, full, same codec) skips the workers and
// is copied through without being decoded at all. For a compressed
// sharded export merged at the same codec, that passthrough covers
// nearly every block, so the merge never pays the LZ re-encode.
package dataset

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"userv6/internal/faultio"
	"userv6/internal/retry"
	"userv6/internal/telemetry"
)

// MergeOptions tunes a merge run.
type MergeOptions struct {
	// Retry is the backoff policy applied to transient I/O errors while
	// reading parts (zero value = retry defaults: 3 retries, 50ms base,
	// 2s cap, jittered). Decoding is retry-safe: a part is read fully
	// into memory before any record is emitted, so a retried read can
	// never duplicate records.
	Retry retry.Policy
	// FS is the filesystem parts are read through (nil = the real OS).
	// The fault-injection tests point it at a faultio.Injector.
	FS faultio.FS
	// Strict makes any corruption or checksum mismatch fatal instead of
	// skipped-and-reported.
	Strict bool
	// Tolerant admits parts whose observed frame codecs disagree with
	// the codec their manifest entry (or their own header) declares.
	// Outside tolerant mode such a part fails the merge with
	// ErrCodecMismatch: a mixed or mislabeled part set is a labeling
	// problem to surface, not to silently absorb.
	Tolerant bool
	// Workers is the per-part decode pool size; <= 0 means GOMAXPROCS.
	// The marker-resync scan stays sequential (the resync position
	// depends on each frame's checksum verdict), but record decode fans
	// out across the pool.
	Workers int
	// Expected, when non-nil, supplies per-part expectations (block
	// counts, whole-file checksums, codec) from a manifest, keyed by
	// part name; coverage is then reported against what the producer
	// wrote rather than against what happens to be readable.
	Expected map[string]PartInfo
}

func (o *MergeOptions) withDefaults() MergeOptions {
	out := MergeOptions{FS: faultio.OS}
	if o == nil {
		return out
	}
	out = *o
	if out.FS == nil {
		out.FS = faultio.OS
	}
	return out
}

// PartCoverage reports how much of one input part the merge recovered.
type PartCoverage struct {
	Name string
	// BlocksRecovered of BlocksExpected frames were intact.
	// BlocksExpected comes from the manifest when available, otherwise
	// from what the scan itself saw (recovered + corrupt).
	BlocksRecovered int
	BlocksExpected  int
	CorruptBlocks   int
	Records         uint64
	SkippedBytes    int64
	// Retries counts transient read errors that were retried
	// successfully.
	Retries int
	// ChecksumOK reports the whole-file CRC32C against the manifest;
	// true when no expectation was available.
	ChecksumOK bool
	// CodecOK reports that every intact frame's codec was one the part
	// declared (the declared codec, or identity — an encoder that did
	// not shrink a block legitimately falls back). True when nothing
	// declared a codec to check against. A tolerant merge records a
	// violation here instead of failing.
	CodecOK bool
}

// Coverage is the recovered fraction of expected blocks in [0, 1]
// (1 for an empty part).
func (c PartCoverage) Coverage() float64 {
	if c.BlocksExpected == 0 {
		return 1
	}
	return float64(c.BlocksRecovered) / float64(c.BlocksExpected)
}

// Intact reports whether the part contributed everything it was
// expected to hold.
func (c PartCoverage) Intact() bool {
	return c.ChecksumOK && c.CorruptBlocks == 0 && c.SkippedBytes == 0 &&
		c.BlocksRecovered == c.BlocksExpected
}

// MergeReport summarizes a merge: per-part coverage in input order and
// the merged totals.
type MergeReport struct {
	Parts   []PartCoverage
	Records uint64
	// Complete is true when every part was fully recovered — the merged
	// output holds everything the parts ever held.
	Complete bool
}

// Merge folds the given part files, in order, into one dataset at out
// carrying meta. Each part is read with capped-exponential-backoff
// retries on transient I/O errors (the shared retry policy), then
// salvaged: intact blocks are re-emitted through the output writer,
// corrupt blocks are skipped and reported. The output is finalized
// (complete, checksummed header) even when parts were damaged — the
// report says what was lost.
func Merge(out string, meta Meta, parts []string, opts *MergeOptions) (MergeReport, error) {
	return MergeCtx(context.Background(), out, meta, parts, opts)
}

// MergeCtx is Merge under a context: cancellation aborts the merge,
// between parts or inside one (the part's block pool stops), and
// interrupts any in-flight backoff sleep. A cancelled merge returns the
// context's error and leaves no output file.
func MergeCtx(ctx context.Context, out string, meta Meta, parts []string, opts *MergeOptions) (MergeReport, error) {
	opt := opts.withDefaults()
	w, err := CreateFS(opt.FS, out, meta)
	if err != nil {
		return MergeReport{}, err
	}
	rep, err := mergeInto(ctx, w, parts, opt)
	if err != nil {
		w.Abort()
		return rep, err
	}
	if err := w.Close(); err != nil {
		return rep, err
	}
	rep.Records = w.Records()
	return rep, nil
}

// MergeManifest merges the parts listed in a manifest (resolved
// relative to the manifest's directory) into out, using the manifest's
// metadata and per-part expectations.
func MergeManifest(out, manifestPath string, opts *MergeOptions) (*Manifest, MergeReport, error) {
	return MergeManifestCtx(context.Background(), out, manifestPath, opts)
}

// MergeManifestCtx is MergeManifest under a context.
func MergeManifestCtx(ctx context.Context, out, manifestPath string, opts *MergeOptions) (*Manifest, MergeReport, error) {
	opt := opts.withDefaults()
	man, err := ReadManifestFS(opt.FS, manifestPath)
	if err != nil {
		return nil, MergeReport{}, err
	}
	dir := filepath.Dir(manifestPath)
	paths := make([]string, len(man.Parts))
	expected := make(map[string]PartInfo, len(man.Parts))
	for i, p := range man.Parts {
		paths[i] = filepath.Join(dir, p.Name)
		expected[p.Name] = p
	}
	opt.Expected = expected
	rep, err := MergeCtx(ctx, out, man.Meta, paths, &opt)
	return man, rep, err
}

// ErrCodecMismatch reports a part whose intact frames carry a codec
// its manifest entry (or its own header) did not declare. Without
// -tolerant a merge refuses such a part set outright: decoding would
// succeed block by block, but the labeling is wrong, and a mislabeled
// corpus fails later in far more confusing ways.
var ErrCodecMismatch = errors.New("dataset: part frame codec disagrees with declared codec")

func mergeInto(ctx context.Context, w *Writer, parts []string, opt MergeOptions) (MergeReport, error) {
	var rep MergeReport
	rep.Complete = true
	for _, path := range parts {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		cov, err := mergePart(ctx, w, path, opt)
		if err != nil {
			return rep, fmt.Errorf("dataset: merge %s: %w", path, err)
		}
		rep.Parts = append(rep.Parts, cov)
		if !cov.Intact() {
			rep.Complete = false
			if opt.Strict {
				return rep, fmt.Errorf("dataset: merge %s: part damaged (%d/%d blocks intact) in strict mode",
					path, cov.BlocksRecovered, cov.BlocksExpected)
			}
		}
	}
	return rep, nil
}

func mergePart(ctx context.Context, w *Writer, path string, opt MergeOptions) (PartCoverage, error) {
	cov := PartCoverage{Name: filepath.Base(path), ChecksumOK: true, CodecOK: true}
	data, retries, err := readFileRetry(ctx, path, opt)
	cov.Retries = retries
	if err != nil {
		return cov, err
	}

	// The codec the part is supposed to be stored under: the manifest
	// entry when there is one, otherwise the part's own header. A raw
	// stream (or an unparseable header) declares nothing, so nothing is
	// checked against it.
	var declared string
	var haveDeclared bool
	want, fromManifest := opt.Expected[cov.Name]
	if fromManifest {
		cov.BlocksExpected = int(want.Blocks)
		got := fmt.Sprintf("%08x", crc32.Checksum(data, headerCastagnoli))
		cov.ChecksumOK = got == want.CRC32C
		declared, haveDeclared = want.Codec, true
	}

	// Strip the dataset header when present; a raw stream (signature at
	// byte zero) is salvaged whole.
	stream := data
	if !(len(data) >= 3 && bytes.HasPrefix(data, []byte("uv6"))) {
		if len(data) < headerSize {
			cov.SkippedBytes = int64(len(data))
			return cov, nil
		}
		if !haveDeclared {
			var pm Meta
			if json.Unmarshal(trimHeader(data[:headerSize]), &pm) == nil {
				declared, haveDeclared = pm.Codec, true
			}
		}
		stream = data[headerSize:]
	}

	// Passthrough of stored frames is only provably byte-identical when
	// the part's producer ran the same per-block selection this writer
	// runs. A single-codec chain needs only the frame's codec to match
	// (the codec's own determinism covers it); a multi-codec chain picks
	// by comparing every member's output size, so the part must declare
	// the same policy — otherwise its blocks are decoded and re-encoded,
	// which costs CPU but never bytes.
	passOK := true
	if chain, ok := telemetry.CodecChainByName(w.meta.Codec); ok && len(chain) > 1 {
		passOK = haveDeclared &&
			telemetry.CanonicalPolicy(declared) == telemetry.CanonicalPolicy(w.meta.Codec)
	}

	sr, serr, werr := mergeStream(ctx, w, stream, opt.Workers, passOK)
	if werr != nil {
		return cov, werr
	}
	cov.BlocksRecovered = sr.Blocks
	cov.CorruptBlocks = sr.CorruptBlocks
	cov.Records = sr.Records
	cov.SkippedBytes = sr.SkippedBytes
	if cov.BlocksExpected == 0 {
		cov.BlocksExpected = sr.Blocks + sr.CorruptBlocks
	}
	if serr != nil {
		// An unrecognizable stream recovers nothing but does not abort
		// the merge: the other parts still count. Strict mode surfaces
		// it through the damaged-part check.
		cov.ChecksumOK = false
	}
	if haveDeclared {
		if err := CheckPartCodecs(declared, sr.Codecs); err != nil {
			cov.CodecOK = false
			if !opt.Tolerant {
				return cov, err
			}
		}
	}
	return cov, nil
}

// CheckPartCodecs verifies the codecs observed across a part's intact
// frames against the compression policy the part declares. The allowed
// set is the policy's codec chain plus identity: a writer under any
// policy falls back to identity per block when encoding does not pay,
// so identity frames inside an "lz" part are legitimate, and an "auto"
// part may mix delta, lz, and identity — but an lz frame inside an
// undeclared part is not. Merge runs it per part; direct manifest
// analysis reuses the same check on each part's read coverage.
func CheckPartCodecs(declared string, observed telemetry.CodecSet) error {
	chain, ok := telemetry.CodecChainByName(declared)
	if !ok {
		return fmt.Errorf("%w: part declares codec %q, unknown to this build", ErrCodecMismatch, declared)
	}
	allowed := telemetry.CodecSet(0)
	allowed.Add(telemetry.CodecIdentity)
	for _, c := range chain {
		allowed.Add(c.ID())
	}
	var bad []string
	for id := 0; id < 32; id++ {
		cid := telemetry.CodecID(id)
		if observed.Has(cid) && !allowed.Has(cid) {
			bad = append(bad, cid.String())
		}
	}
	if len(bad) > 0 {
		name := telemetry.CanonicalPolicy(declared)
		if name == "" {
			name = "identity"
		}
		return fmt.Errorf("%w: declared %q, found frames under %s", ErrCodecMismatch,
			name, strings.Join(bad, ", "))
	}
	return nil
}

// mergeStream salvages one part's stream into the output writer
// through the block pool's ordered sink, so the output bytes match a
// sequential merge exactly. The salvage scan also plans,
// deterministically, which blocks pass through: a block lands in the
// output byte-identically to re-writing its records iff the caller
// established policy compatibility (passOK), the writer has no partial
// block pending, the block is exactly full, and its stored codec is one
// the writer's chain could have chosen. The plan simulates the writer's
// pending-record count and mirrors WriteEncodedBlock's own precondition
// check, so by the time an aligned block is delivered the writer is
// exactly where the plan predicted. Passthrough blocks skip the pool's
// CPU entirely (their stored bytes, checksum included, are already what
// the output needs); everything else is decoded by the pool and
// re-emitted record by record. scanErr reports an unrecognizable stream
// (non-fatal to the merge); err reports an output-side failure or
// cancellation (fatal).
func mergeStream(ctx context.Context, w *Writer, stream []byte, workers int, passOK bool) (rep telemetry.SalvageReport, scanErr, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pending, perBlock := w.tw.Pending(), w.tw.RecordsPerBlock()
	plan := func(b telemetry.RawBlock) bool {
		pass := passOK && pending == 0 && b.Checksummed() &&
			b.Count == perBlock && w.tw.CodecCompatible(b.Codec)
		if !pass {
			pending = (pending + b.Count) % perBlock
		}
		return pass
	}
	p := newBlockPool(ctx)
	defer p.cancel()
	err = p.ordered(workers, salvageScan(stream, plan, &rep, &scanErr), func(it item) error {
		if it.pass {
			ok, err := w.writeEncodedBlock(it.blk)
			if ok || err != nil {
				return err
			}
			// The writer declined (cannot happen while the plan's
			// simulation holds, but stay safe): decode the stored block
			// and re-emit its records.
			if it.recs, _, err = it.blk.AppendDecoded(nil, nil); err != nil {
				return err
			}
		}
		for _, o := range it.recs {
			if err := w.Write(o); err != nil {
				return err
			}
		}
		return nil
	})
	return rep, scanErr, err
}

// readFileRetry reads path fully through the shared retry policy.
// os.ErrNotExist is terminal on the first attempt: a missing part will
// not appear by waiting.
func readFileRetry(ctx context.Context, path string, opt MergeOptions) (data []byte, retries int, err error) {
	retries, err = opt.Retry.Do(ctx, "merge:"+filepath.Base(path), func() error {
		var rerr error
		data, rerr = opt.FS.ReadFile(path)
		if os.IsNotExist(rerr) {
			return retry.Permanent(rerr)
		}
		return rerr
	})
	if err != nil {
		return nil, retries, err
	}
	return data, retries, nil
}
