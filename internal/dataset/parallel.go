package dataset

// Block-parallel dataset reading. The v2 format's independently
// checksummed, independently decodable blocks are the natural unit of
// parallelism: a single goroutine performs the sequential disk I/O
// (frame scanning), a worker pool verifies checksums and decodes
// records, and batches are delivered in exact stream order (ForEach,
// ForEachBatch) or consumed on the decode workers themselves
// (ForEachWorker). Tolerant reads — the salvage path that
// skips corrupt blocks and reports coverage — go through the same pool.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"

	"userv6/internal/telemetry"
)

// ParallelOptions tunes a ParallelReader.
type ParallelOptions struct {
	// Workers is the decode pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Tolerant switches to the salvage read path: corrupt blocks are
	// skipped instead of failing the read, and Coverage reports what
	// fraction of the stream the delivered records describe. The whole
	// stream is buffered in memory, like Salvage.
	Tolerant bool
}

// Batch is one decoded block of records. The slice is recycled after
// the delivery callback returns; consumers must copy any records they
// retain (Observation is a value type, so plain assignment copies).
type Batch struct {
	// Index is the block's 0-based position in the stream. In tolerant
	// mode indexes count intact blocks only.
	Index int
	// Recs holds the block's decoded records in stream order.
	Recs []telemetry.Observation
}

// ParallelReader reads a dataset file with concurrent block decode. It
// accepts everything Open and Salvage accept: headered dataset files
// (v1 or v2 stream) and headerless raw telemetry streams.
type ParallelReader struct {
	f    *os.File
	meta Meta
	raw  bool
	opts ParallelOptions

	consumed bool
	coverage telemetry.SalvageReport
	covered  bool
}

// OpenParallel opens path for parallel reading and parses its header
// (verifying the header CRC like Open). A file that starts directly
// with a telemetry signature is accepted as a headerless raw stream
// with zero Meta.
func OpenParallel(path string, opts ParallelOptions) (*ParallelReader, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open: %w", err)
	}
	hdr := make([]byte, headerSize)
	n, err := io.ReadFull(f, hdr)
	if err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
		f.Close()
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	pr := &ParallelReader{f: f, opts: opts}
	if n >= 3 && hdr[0] == 'u' && hdr[1] == 'v' && hdr[2] == '6' {
		pr.raw = true
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("dataset: seek: %w", err)
		}
		return pr, nil
	}
	if n != headerSize {
		f.Close()
		return nil, fmt.Errorf("dataset: read header: %w", io.ErrUnexpectedEOF)
	}
	if err := json.Unmarshal(trimHeader(hdr), &pr.meta); err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: parse header: %w", err)
	}
	if err := verifyHeaderCRC(hdr, pr.meta); err != nil {
		f.Close()
		return nil, err
	}
	return pr, nil
}

// Meta returns the dataset metadata (zero for raw streams).
func (pr *ParallelReader) Meta() Meta { return pr.meta }

// Workers returns the normalized decode-pool size (the Workers option,
// with <= 0 resolved to GOMAXPROCS at open time). ForEachWorker calls
// its factory exactly this many times.
func (pr *ParallelReader) Workers() int { return pr.opts.Workers }

// Raw reports whether the file is a headerless telemetry stream.
func (pr *ParallelReader) Raw() bool { return pr.raw }

// Coverage returns the stream report of a completed read and whether
// one finished. A tolerant read mirrors Scan's accounting exactly (the
// same blocks counted intact, corrupt, or skipped); a strict read that
// ran to completion reports the intact stream it delivered — blocks,
// records, and per-codec block counts, with nothing corrupt or skipped
// by construction. A read that returned an error reports nothing.
func (pr *ParallelReader) Coverage() (telemetry.SalvageReport, bool) {
	return pr.coverage, pr.covered
}

// finishStrict sums the per-goroutine block counts of a successful
// strict read into the reader's coverage. An empty stream still reports
// as v2: there is nothing to contradict the newest format.
func (pr *ParallelReader) finishStrict(reports ...telemetry.SalvageReport) {
	var total telemetry.SalvageReport
	for i := range reports {
		total.Add(reports[i])
	}
	if total.Version == 0 {
		total.Version = 2
	}
	pr.coverage, pr.covered = total, true
}

// Close closes the underlying file.
func (pr *ParallelReader) Close() error { return pr.f.Close() }

// ForEach streams every record through fn in exact stream order, like
// Reader.ForEach, with decode parallelized across the pool.
func (pr *ParallelReader) ForEach(fn telemetry.EmitFunc) error {
	return pr.ForEachBatch(context.Background(), func(b Batch) error {
		for _, o := range b.Recs {
			fn(o)
		}
		return nil
	})
}

// ForEachBatch decodes the stream through the worker pool and delivers
// each block's records to fn, invoked from the calling goroutine, one
// batch at a time, in stream order — a strict-mode corrupt-block error
// surfaces only after every block before it has been delivered, exactly
// like the sequential reader. A non-nil error from fn cancels the
// read and is returned. The reader is single-use: a second call
// returns an error.
func (pr *ParallelReader) ForEachBatch(ctx context.Context, fn func(Batch) error) error {
	if pr.consumed {
		return errors.New("dataset: stream already consumed")
	}
	pr.consumed = true
	if pr.opts.Tolerant {
		return pr.runTolerant(ctx, fn)
	}
	return pr.runStrict(ctx, fn)
}

// scanLabeled and workerLabeled attach pprof goroutine labels so CPU
// and goroutine profiles attribute time by pipeline stage and worker:
// stage=scan for the frame scanner, stage=decode for pool workers that
// only decode, stage=decode+analyze for ForEachWorker workers.
func scanLabeled(body func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", "scan"),
		func(context.Context) { body() })
}

func workerLabeled(stage string, w int, body func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", stage, "worker", strconv.Itoa(w)),
		func(context.Context) { body() })
}

// result is one decoded block (or a positioned error) on its way from
// the pool to delivery. codec and cksum carry the block's stored codec
// and frame version so delivery can count strict-mode coverage.
type result struct {
	idx   int
	recs  []telemetry.Observation
	err   error
	codec telemetry.CodecID
	cksum bool
}

// pools recycles payload and record-batch scratch buffers across
// blocks, so a steady-state read allocates nothing per block.
type pools struct {
	payload sync.Pool
	recs    sync.Pool
}

func (p *pools) getPayload() []byte {
	if b, ok := p.payload.Get().(*[]byte); ok {
		return *b
	}
	return nil
}

func (p *pools) putPayload(b []byte) {
	if b != nil {
		p.payload.Put(&b)
	}
}

func (p *pools) getRecs() []telemetry.Observation {
	if b, ok := p.recs.Get().(*[]telemetry.Observation); ok {
		return (*b)[:0]
	}
	return make([]telemetry.Observation, 0, telemetry.DefaultBlockRecords)
}

func (p *pools) putRecs(b []telemetry.Observation) {
	if b != nil {
		p.recs.Put(&b)
	}
}

func (pr *ParallelReader) runStrict(ctx context.Context, fn func(Batch) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var bufs pools
	jobs := make(chan telemetry.RawBlock, pr.opts.Workers)
	results := make(chan result, pr.opts.Workers*2)

	// Scanner: sequential frame I/O. A scan error is assigned the index
	// the next block would have carried, so ordered delivery emits it
	// after every block before the damage — like the sequential reader.
	go scanLabeled(func() {
		defer close(jobs)
		br := telemetry.NewBlockReader(bufio.NewReaderSize(pr.f, 1<<20))
		idx := 0
		for {
			blk, err := br.Next(bufs.getPayload())
			if err == io.EOF {
				return
			}
			if err != nil {
				select {
				case results <- result{idx: idx, err: err}:
				case <-ctx.Done():
				}
				return
			}
			idx = blk.Index + 1
			select {
			case jobs <- blk:
			case <-ctx.Done():
				return
			}
		}
	})

	// Workers: CRC verify + codec decode. Each worker keeps its own
	// decompression scratch, so a compressed stream decodes with zero
	// steady-state allocations and the LZ work parallelizes with the
	// rest of the block decode.
	var wg sync.WaitGroup
	for w := 0; w < pr.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerLabeled("decode", w, func() {
				var scratch []byte
				for blk := range jobs {
					recs, sc, err := blk.AppendDecoded(bufs.getRecs(), scratch)
					scratch = sc
					bufs.putPayload(blk.Payload)
					if err != nil {
						recs = nil
					}
					select {
					case results <- result{idx: blk.Index, recs: recs, err: err,
						codec: blk.Codec, cksum: blk.Checksummed()}:
					case <-ctx.Done():
						return
					}
				}
			})
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var rep telemetry.SalvageReport
	if err := pr.deliver(cancel, results, fn, &bufs, &rep); err != nil {
		return err
	}
	// deliver only cancels after recording an error, so a cancelled
	// context here means the caller's ctx fired mid-read.
	if err := ctx.Err(); err != nil {
		return err
	}
	pr.finishStrict(rep)
	return nil
}

// Note that the scan error carries the index where the sequential
// reader would have failed; in the strict path corruption anywhere
// fails the read, but ordered delivery still hands over every block
// before the damage first, mirroring Reader.ForEach exactly.

func (pr *ParallelReader) runTolerant(ctx context.Context, fn func(Batch) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffer the stream like Salvage: resynchronization needs random
	// access, and salvage is an offline recovery path, not a hot one.
	data, err := io.ReadAll(bufio.NewReaderSize(pr.f, 1<<20))
	if err != nil {
		return fmt.Errorf("dataset: salvage read: %w", err)
	}

	var bufs pools
	type job struct {
		idx     int
		payload []byte
	}
	jobs := make(chan job, pr.opts.Workers)
	results := make(chan result, pr.opts.Workers*2)

	// Scanner: the sequential marker-resync walk, checksums included —
	// the resync position depends on each candidate frame's checksum
	// verdict, so deferring verification would change what salvage
	// recovers. Workers get the already-verified payloads to decode.
	var (
		rep     telemetry.SalvageReport
		scanErr error
	)
	go scanLabeled(func() {
		defer close(jobs)
		idx := 0
		rep, scanErr = telemetry.SalvageBlocks(data, func(payload []byte, count int) {
			select {
			case jobs <- job{idx: idx, payload: payload}:
				idx++
			case <-ctx.Done():
			}
		})
	})

	var wg sync.WaitGroup
	for w := 0; w < pr.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerLabeled("decode", w, func() {
				for j := range jobs {
					recs := telemetry.AppendRecords(bufs.getRecs(), j.payload)
					select {
					case results <- result{idx: j.idx, recs: recs}:
					case <-ctx.Done():
						return
					}
				}
			})
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	if err := pr.deliver(cancel, results, fn, &bufs, nil); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The report is safe to read: SalvageBlocks returned before the
	// deferred close(jobs), which happens-before the pool drained and
	// deliver observed the closed results channel.
	if scanErr != nil {
		return scanErr
	}
	pr.coverage, pr.covered = rep, true
	return nil
}

// deliver consumes results until the pool drains, holding out-of-order
// blocks back until their predecessors have been handed to fn. On the
// first error it cancels the pipeline and keeps draining so no
// goroutine is left blocked on a send. A non-nil rep counts each
// successfully delivered block (strict reads; tolerant reads take their
// coverage from the salvage scan instead).
func (pr *ParallelReader) deliver(cancel context.CancelFunc, results <-chan result, fn func(Batch) error, bufs *pools, rep *telemetry.SalvageReport) error {
	var (
		firstErr error
		next     int
		held     = make(map[int]result)
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	for r := range results {
		// An error waits its turn like any block.
		held[r.idx] = r
		for {
			h, ok := held[next]
			if !ok {
				break
			}
			delete(held, next)
			if firstErr != nil {
				bufs.putRecs(h.recs)
				next++
				continue
			}
			if h.err != nil {
				fail(h.err)
				next++
				continue
			}
			if err := fn(Batch{Index: next, Recs: h.recs}); err != nil {
				fail(err)
			} else if rep != nil {
				rep.RecordBlock(h.codec, h.cksum, len(h.recs))
			}
			bufs.putRecs(h.recs)
			next++
		}
	}
	return firstErr
}

// WorkerPanicError reports a panic that escaped a ForEachWorker
// callback (or the decode feeding it). The read returns it as an
// ordinary error so callers can tell "a worker blew up" from "a block
// was corrupt"; Stack is the panicking goroutine's stack at recover.
type WorkerPanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("dataset: ForEachWorker worker %d panicked: %v", e.Worker, e.Value)
}

// ForEachWorker is the per-worker consumption mode: newWorker is called
// serially (worker 0 first, before any goroutine starts) to build one
// callback per decode worker, and each worker then invokes its own
// callback inline on every block it decodes — no ordered-delivery
// heap, no cross-goroutine batch handoff, no router. Batches arrive in
// arbitrary order and their record slices are recycled as soon as the
// callback returns. A given callback is only ever invoked from its own
// worker goroutine, so worker-local state needs no locking, while the
// serial factory phase may freely touch shared state. Tolerant selects
// the salvage scan and fills Coverage on success. The first decode or
// callback error cancels the read and is returned; a callback panic is
// recovered and returned as a *WorkerPanicError. The reader is
// single-use, like ForEachBatch.
func (pr *ParallelReader) ForEachWorker(ctx context.Context, newWorker func(worker int) func(Batch) error) error {
	if pr.consumed {
		return errors.New("dataset: stream already consumed")
	}
	pr.consumed = true
	fns := make([]func(Batch) error, pr.opts.Workers)
	for w := range fns {
		fns[w] = newWorker(w)
	}
	if pr.opts.Tolerant {
		return pr.workerTolerant(ctx, fns)
	}
	return pr.workerStrict(ctx, fns)
}

// failFunc returns a first-error-wins recorder: the first failure
// cancels the pipeline, later ones are dropped. The recorded error is
// read only after every writer goroutine has been joined.
func failFunc(cancel context.CancelFunc, firstErr *error) func(error) {
	var mu sync.Mutex
	return func(err error) {
		mu.Lock()
		if *firstErr == nil {
			*firstErr = err
			cancel()
		}
		mu.Unlock()
	}
}

func (pr *ParallelReader) workerStrict(ctx context.Context, fns []func(Batch) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		bufs     pools
		firstErr error
	)
	fail := failFunc(cancel, &firstErr)

	jobs := make(chan telemetry.RawBlock, pr.opts.Workers)
	go scanLabeled(func() {
		defer close(jobs)
		br := telemetry.NewBlockReader(bufio.NewReaderSize(pr.f, 1<<20))
		for {
			blk, err := br.Next(bufs.getPayload())
			if err == io.EOF {
				return
			}
			if err != nil {
				fail(err)
				return
			}
			select {
			case jobs <- blk:
			case <-ctx.Done():
				return
			}
		}
	})

	reports := make([]telemetry.SalvageReport, len(fns))
	var wg sync.WaitGroup
	for w := range fns {
		wg.Add(1)
		go func(w int, fn func(Batch) error) {
			defer wg.Done()
			workerLabeled("decode+analyze", w, func() {
				defer func() {
					if v := recover(); v != nil {
						fail(&WorkerPanicError{Worker: w, Value: v, Stack: debug.Stack()})
						for range jobs {
							// Drain so the scanner never blocks on a
							// send this worker would have consumed.
						}
					}
				}()
				var scratch []byte
				for blk := range jobs {
					if ctx.Err() != nil {
						continue // cancelled: drain without decoding
					}
					recs, sc, err := blk.AppendDecoded(bufs.getRecs(), scratch)
					scratch = sc
					bufs.putPayload(blk.Payload)
					if err == nil {
						err = fn(Batch{Index: blk.Index, Recs: recs})
						if err == nil {
							reports[w].RecordBlock(blk.Codec, blk.Checksummed(), len(recs))
						}
					}
					bufs.putRecs(recs)
					if err != nil {
						fail(err)
					}
				}
			})
		}(w, fns[w])
	}
	wg.Wait()
	// Workers only exit after the scanner closed jobs, so every fail()
	// happens-before this read.
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	pr.finishStrict(reports...)
	return nil
}

func (pr *ParallelReader) workerTolerant(ctx context.Context, fns []func(Batch) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffer the stream like Salvage: resynchronization needs random
	// access (see runTolerant).
	data, err := io.ReadAll(bufio.NewReaderSize(pr.f, 1<<20))
	if err != nil {
		return fmt.Errorf("dataset: salvage read: %w", err)
	}

	var (
		bufs     pools
		firstErr error
	)
	fail := failFunc(cancel, &firstErr)

	type job struct {
		idx     int
		payload []byte
	}
	jobs := make(chan job, pr.opts.Workers)
	var (
		rep     telemetry.SalvageReport
		scanErr error
	)
	go scanLabeled(func() {
		defer close(jobs)
		idx := 0
		rep, scanErr = telemetry.SalvageBlocks(data, func(payload []byte, count int) {
			select {
			case jobs <- job{idx: idx, payload: payload}:
				idx++
			case <-ctx.Done():
			}
		})
	})

	var wg sync.WaitGroup
	for w := range fns {
		wg.Add(1)
		go func(w int, fn func(Batch) error) {
			defer wg.Done()
			workerLabeled("decode+analyze", w, func() {
				defer func() {
					if v := recover(); v != nil {
						fail(&WorkerPanicError{Worker: w, Value: v, Stack: debug.Stack()})
						for range jobs {
						}
					}
				}()
				for j := range jobs {
					if ctx.Err() != nil {
						continue
					}
					recs := telemetry.AppendRecords(bufs.getRecs(), j.payload)
					err := fn(Batch{Index: j.idx, Recs: recs})
					bufs.putRecs(recs)
					if err != nil {
						fail(err)
					}
				}
			})
		}(w, fns[w])
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// rep/scanErr were assigned before the scanner's deferred
	// close(jobs), which happens-before every worker's exit.
	if scanErr != nil {
		return scanErr
	}
	pr.coverage, pr.covered = rep, true
	return nil
}
