package dataset

// Block-parallel dataset reading. The v2 format's independently
// checksummed, independently decodable blocks are the unit of
// parallelism, and every parallel pass in this package — ordered reads
// (ForEachBatch), per-worker reads (ForEachWorker) and merge — runs
// through one block pool. A scan goroutine walks the stream in order:
// the strict scan reads frames through a BlockReader, the salvage scan
// resyncs over a buffered stream and, for merge, plans which blocks
// pass through undecoded. N decode workers verify and decode what the
// scan emits and hand every block, or its positioned error, to a sink.
// The ordered sink reorders blocks onto the calling goroutine in stream
// order; the per-worker sink runs the worker's own callback inline. The
// first error (scan, decode, callback, a recovered worker panic, or
// the caller's cancellation) cancels the whole pass.

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

// Close closes the underlying file.
func (pr *ParallelReader) Close() error { return pr.f.Close() }

// ForEachBatch decodes the stream through the worker pool and delivers
// each block's records to fn, invoked from the calling goroutine, one
// batch at a time, in stream order — a strict-mode corrupt-block error
// surfaces only after every block before it has been delivered, exactly
// like the sequential reader. A non-nil error from fn cancels the
// read and is returned; a decode worker's panic is recovered and
// returned as a *WorkerPanicError. The reader is single-use: a second
// call returns an error.
func (pr *ParallelReader) ForEachBatch(ctx context.Context, fn func(Batch) error) error {
	if err := pr.consume(); err != nil {
		return err
	}
	return pr.read(ctx, true, []func(Batch) error{fn})
}

// ForEachWorker is the per-worker consumption mode: newWorker is called
// serially (worker 0 first, before any goroutine starts) to build one
// callback per decode worker, and each worker then invokes its own
// callback inline on every block it decodes — no ordered delivery, no
// cross-goroutine batch handoff. Batches arrive in arbitrary order and
// their record slices are recycled as soon as the callback returns. A
// given callback is only ever invoked from its own worker goroutine, so
// worker-local state needs no locking, while the serial factory phase
// may freely touch shared state. Tolerant selects the salvage scan and
// fills Coverage on success. The first decode or callback error cancels
// the read and is returned; a callback panic is recovered and returned
// as a *WorkerPanicError. The reader is single-use, like ForEachBatch.
func (pr *ParallelReader) ForEachWorker(ctx context.Context, newWorker func(worker int) func(Batch) error) error {
	if err := pr.consume(); err != nil {
		return err
	}
	fns := make([]func(Batch) error, pr.opts.Workers)
	for w := range fns {
		fns[w] = newWorker(w)
	}
	return pr.read(ctx, false, fns)
}

func (pr *ParallelReader) consume() error {
	if pr.consumed {
		return errors.New("dataset: stream already consumed")
	}
	pr.consumed = true
	return nil
}

// read runs one pass over the stream, through the ordered sink into
// fns[0] or through the per-worker sink into fns, and records the
// coverage of a pass that succeeded.
func (pr *ParallelReader) read(ctx context.Context, ordered bool, fns []func(Batch) error) error {
	p := newBlockPool(ctx)
	defer p.cancel()
	var (
		scan    scanFunc
		cov     telemetry.SalvageReport
		scanErr error
	)
	if pr.opts.Tolerant {
		// Buffer the stream like Salvage: resynchronization needs random
		// access, and salvage is an offline recovery path, not a hot one.
		data, err := io.ReadAll(bufio.NewReaderSize(pr.f, 1<<20))
		if err != nil {
			return fmt.Errorf("dataset: salvage read: %w", err)
		}
		scan = salvageScan(data, nil, &cov, &scanErr)
	} else {
		scan = p.blockScan(pr.f)
	}
	reports := make([]telemetry.SalvageReport, len(fns))
	var err error
	if ordered {
		err = p.ordered(pr.opts.Workers, scan, func(it item) error { return it.deliver(fns[0], &reports[0]) })
	} else {
		err = p.perWorker(scan, fns, reports)
	}
	switch {
	case err != nil:
		return err
	case scanErr != nil:
		return scanErr
	case !pr.opts.Tolerant:
		// A strict read covers the intact stream it delivered. An empty
		// stream still reports as v2: there is nothing to contradict the
		// newest format.
		for i := range reports {
			cov.Add(reports[i])
		}
		if cov.Version == 0 {
			cov.Version = 2
		}
	}
	pr.coverage, pr.covered = cov, true
	return nil
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

// WorkerPanicError reports a panic recovered on a decode worker: in the
// decode itself or, for ForEachWorker, in the callback it runs. The read
// returns it as an ordinary error so callers can tell "a worker blew
// up" from "a block was corrupt"; Stack is the panicking goroutine's
// stack at recover.
type WorkerPanicError struct {
	Worker int
	Value  any
	Stack  []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("dataset: decode worker %d panicked: %v", e.Worker, e.Value)
}

// item is one block on its way through the pool. The scan sets idx
// and blk, plus decoded for the salvage scan, which has already
// verified and codec-decoded the payload; or it sets err to a
// positioned scan error. pass marks a block the sink writes through
// undecoded. A decode worker fills recs, or err with the block's decode
// error. The sink owns recs and recycles them.
type item struct {
	idx     int
	blk     telemetry.RawBlock
	decoded []byte
	pass    bool
	recs    []telemetry.Observation
	err     error
}

// deliver hands a decoded block to fn and, once fn accepts it, counts
// it into rep: the strict-coverage tally both sinks keep the same way.
func (it *item) deliver(fn func(Batch) error, rep *telemetry.SalvageReport) error {
	if err := fn(Batch{Index: it.idx, Recs: it.recs}); err != nil {
		return err
	}
	rep.RecordBlock(it.blk.Codec, it.blk.Checksummed(), len(it.recs))
	return nil
}

// scanFunc walks a stream in order on the pool's scan goroutine and
// hands each block to emit. emit reports false once the pass is
// cancelled; the scan may stop there.
type scanFunc func(emit func(item) bool)

// blockScan is the strict scan: sequential frame I/O through a
// BlockReader, with checksums left to the decode workers. A scan error
// is emitted at the index the next block would have carried, so the
// ordered sink fails only after every block before the damage has been
// delivered, like the sequential reader.
func (p *blockPool) blockScan(r io.Reader) scanFunc {
	return func(emit func(item) bool) {
		br := telemetry.NewBlockReader(bufio.NewReaderSize(r, 1<<20))
		for next := 0; ; {
			blk, err := br.Next(p.bufs.getPayload())
			if err == io.EOF {
				return
			}
			if err != nil {
				emit(item{idx: next, err: err})
				return
			}
			next = blk.Index + 1
			if !emit(item{idx: blk.Index, blk: blk}) {
				return
			}
		}
	}
}

// salvageScan is the tolerant scan: the sequential marker-resync walk
// over a buffered stream, checksums and codec decode included — the
// resync position depends on each candidate frame's checksum verdict,
// so deferring verification would change what salvage recovers. Block
// indexes count intact blocks only. plan, when non-nil, marks the
// blocks to pass through undecoded; merge supplies it. The walk's
// report and error are stored in rep and scanErr before the scan
// returns, so they are safe to read once the pass is over.
func salvageScan(data []byte, plan func(telemetry.RawBlock) bool, rep *telemetry.SalvageReport, scanErr *error) scanFunc {
	return func(emit func(item) bool) {
		*rep, *scanErr = telemetry.SalvageRawBlocks(data, func(b telemetry.RawBlock, decoded []byte) {
			emit(item{idx: b.Index, blk: b, decoded: decoded, pass: plan != nil && plan(b)})
		})
	}
}

// blockPool is one parallel pass over a stream: its cancellation, its
// scratch buffers and the first error that ended it.
type blockPool struct {
	ctx    context.Context
	cancel context.CancelFunc
	bufs   pools
	mu     sync.Mutex
	err    error
}

func newBlockPool(ctx context.Context) *blockPool {
	p := &blockPool{}
	p.ctx, p.cancel = context.WithCancel(ctx)
	return p
}

// fail records the first error and cancels the pass; later errors are
// dropped.
func (p *blockPool) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
		p.cancel()
	}
	p.mu.Unlock()
}

// result is the outcome of a pass whose goroutines have all exited:
// the first recorded error, else the caller's cancellation, else nil.
func (p *blockPool) result() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return p.ctx.Err()
}

// run is the block pool. scan runs on a goroutine labelled stage=scan;
// workers goroutines labelled stage (and worker=N) decode what it emits
// and pass every item, decode error included, to sink on the decoding
// worker. Each worker keeps its own decompression scratch, so a
// compressed stream decodes with no steady-state allocation. A sink
// error or a recovered worker panic fails the pass. run returns once
// the scan and every worker have exited.
func (p *blockPool) run(workers int, stage string, scan scanFunc, sink func(w int, it item) error) {
	// One queued block per worker lets the scan read ahead while every
	// worker is busy.
	jobs := make(chan item, workers)
	go pprof.Do(context.Background(), pprof.Labels("stage", "scan"), func(context.Context) {
		defer close(jobs)
		scan(func(it item) bool {
			select {
			case jobs <- it:
				return true
			case <-p.ctx.Done():
				return false
			}
		})
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("stage", stage, "worker", strconv.Itoa(w)), func(context.Context) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					p.fail(&WorkerPanicError{Worker: w, Value: v, Stack: debug.Stack()})
					for range jobs {
						// Drain so the scan never blocks on a send this
						// worker would have taken.
					}
				}
			}()
			var scratch []byte
			for it := range jobs {
				if p.ctx.Err() != nil {
					continue // cancelled: drain without decoding
				}
				switch {
				case it.err != nil, it.pass:
					// Nothing to decode: a positioned error, or a block
					// the sink writes through as stored.
				case it.decoded != nil:
					it.recs = telemetry.AppendRecords(p.bufs.getRecs(), it.decoded)
				default:
					it.recs, scratch, it.err = it.blk.AppendDecoded(p.bufs.getRecs(), scratch)
					p.bufs.putPayload(it.blk.Payload)
				}
				if err := sink(w, it); err != nil {
					p.fail(err)
				}
			}
		})
	}
	wg.Wait()
}

// ordered runs the pool with the ordered sink: workers send their
// items down a channel, and this loop, on the calling goroutine, holds
// out-of-order blocks back and passes each to deliver in stream order.
// An error item waits its turn like any block, so a positioned error
// fails the pass only after every block before it was delivered.
// Nothing is delivered after the first error or cancellation.
func (p *blockPool) ordered(workers int, scan scanFunc, deliver func(item) error) error {
	// Two finished blocks per worker let workers run ahead of a slow
	// predecessor the loop is still waiting for.
	results := make(chan item, workers*2)
	go func() {
		p.run(workers, "decode", scan, func(_ int, it item) error {
			select {
			case results <- it:
			case <-p.ctx.Done():
				p.bufs.putRecs(it.recs)
			}
			return nil
		})
		close(results)
	}()
	next, held := 0, make(map[int]item)
	for it := range results {
		held[it.idx] = it
		for h, ok := held[next]; ok; h, ok = held[next] {
			delete(held, next)
			next++
			if p.ctx.Err() == nil {
				err := h.err
				if err == nil {
					err = deliver(h)
				}
				if err != nil {
					p.fail(err)
				}
			}
			p.bufs.putRecs(h.recs)
		}
	}
	return p.result()
}

// perWorker runs the pool with the per-worker sink: worker w passes
// each block it decodes to fns[w] inline and counts strict coverage
// into reports[w].
func (p *blockPool) perWorker(scan scanFunc, fns []func(Batch) error, reports []telemetry.SalvageReport) error {
	p.run(len(fns), "decode+analyze", scan, func(w int, it item) error {
		defer p.bufs.putRecs(it.recs)
		if it.err != nil {
			return it.err
		}
		return it.deliver(fns[w], &reports[w])
	})
	return p.result()
}
