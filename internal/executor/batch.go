package executor

// Batch-at-a-time execution. The Volcano Next path moves one row per
// virtual call; the batch path amortizes that dispatch (and the per-row
// output allocation) over a fixed-capacity vector of rows. Operators with a
// native NextBatch keep the work meter bit-identical to the row path by
// pre-scaling their per-row charge into integer ticks (see Ticks) and
// issuing one AddTicks per batch. Operators without a native batch path are
// driven through a row-level adapter (batchEdge), so a plan may freely mix
// converted and unconverted operators.

import (
	"errors"
	"sync"

	"repro/internal/schema"
	"repro/internal/types"
)

// DefaultBatchSize is the batch capacity used when batching is enabled
// without an explicit size.
const DefaultBatchSize = 1024

// Batch is a fixed-capacity vector of rows moving through the executor as
// one unit. Output-producing operators (projection, joins) carve their rows
// out of a shared slab so a whole batch costs O(1) allocations instead of
// one per row.
//
// Ownership contract: a batch returned by NextBatch (and every row in it)
// is valid only until the next NextBatch call on the same producer. A
// consumer that retains rows across pulls must copy them when Ephemeral
// reports true; non-ephemeral rows (heap references, materialized buffers)
// are stable and may be retained by reference.
type Batch struct {
	// Rows holds the batch's rows in production order.
	Rows []schema.Row

	slab      []types.Datum // backing storage for Alloc-carved rows
	ephemeral bool          // rows alias the slab and are reused on Reset
}

// NewBatch returns an empty batch with capacity for capRows rows.
func NewBatch(capRows int) *Batch {
	if capRows < 1 {
		capRows = 1
	}
	return &Batch{Rows: make([]schema.Row, 0, capRows)}
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Ephemeral reports whether the batch's rows alias producer-owned storage
// that the next pull reuses; such rows must be copied before being retained.
func (b *Batch) Ephemeral() bool { return b.ephemeral }

// Reset empties the batch for refilling, keeping row and slab capacity.
func (b *Batch) Reset() {
	b.Rows = b.Rows[:0]
	b.slab = b.slab[:0]
	b.ephemeral = false
}

// Append adds a stable row (owned elsewhere) to the batch by reference.
func (b *Batch) Append(row schema.Row) { b.Rows = append(b.Rows, row) }

// Alloc appends a new row of n datums carved from the batch slab and
// returns it for the caller to fill. Alloc marks the batch ephemeral. Rows
// are always carved at the current slab tail (a full slab is replaced by a
// fresh block, leaving previously carved rows on the old backing).
func (b *Batch) Alloc(n int) schema.Row {
	b.ephemeral = true
	if n == 0 {
		b.Rows = append(b.Rows, schema.Row{})
		return b.Rows[len(b.Rows)-1]
	}
	if len(b.slab)+n > cap(b.slab) {
		rem := cap(b.Rows) - len(b.Rows)
		if rem < 1 {
			rem = 1
		}
		b.slab = make([]types.Datum, 0, n*rem)
	}
	off := len(b.slab)
	b.slab = b.slab[:off+n]
	row := schema.Row(b.slab[off : off+n : off+n])
	b.Rows = append(b.Rows, row)
	return row
}

// batchPool recycles transfer batches handed across exchange channels,
// where the producing worker cannot reuse its own buffer.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// getBatch returns an empty pooled batch with capacity for capRows rows.
func getBatch(capRows int) *Batch {
	b := batchPool.Get().(*Batch)
	b.Reset()
	if cap(b.Rows) < capRows {
		b.Rows = make([]schema.Row, 0, capRows)
	}
	return b
}

// putBatch returns a batch to the pool once no consumer references it.
func putBatch(b *Batch) {
	if b != nil {
		batchPool.Put(b)
	}
}

// BatchNode is the vectorized fast path of Node. NextBatch returns the
// operator's next rows as one batch, or (nil, nil) at end of stream; an
// empty non-nil batch is never returned. max caps the number of rows the
// caller wants (<= 0 means the producer's capacity); it is how CHECK
// operators bound how far a child may run past a validity range, keeping
// eager violations at the same logical row as the row path. Exchange
// consumers treat max as advisory: a transfer batch arrives sized by its
// producing worker.
//
// The driving side of every edge picks exactly one protocol per execution:
// a parent either calls Next or NextBatch on a child, never both.
type BatchNode interface {
	Node
	// NextBatch returns the next batch of at most max rows, or nil at end
	// of stream.
	NextBatch(max int) (*Batch, error)
}

// batchEdge drives one parent→child edge batch-at-a-time: natively when the
// child implements BatchNode, through a row-level adapter otherwise. The
// adapter is the shim that keeps unconverted operators (sort output, MV
// scan, hash lookup, NLJN, MGJN) usable below converted parents.
type batchEdge struct {
	bn   BatchNode // non-nil: child's native batch path
	n    Node      // row-path child driven through the adapter
	buf  *Batch    // adapter-owned buffer (row path only)
	size int
	eos  bool
	err  error // child error held until the buffered rows are consumed
}

// batchEdge returns the edge for driving child batch-at-a-time.
func (e *Executor) batchEdge(child Node) *batchEdge {
	size := e.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	if bn, ok := child.(BatchNode); ok && e.BatchSize > 0 {
		return &batchEdge{bn: bn, size: size}
	}
	return &batchEdge{n: child, size: size}
}

// pull returns the child's next batch of (about) max rows, nil at end of
// stream. Adapter-filled batches hold rows produced by the child's Next,
// which are stable (operator-owned or heap references), so they are not
// ephemeral. A child error with rows already buffered is held back until
// the partial batch is consumed, mirroring the row path where those rows
// were handed upward before the error.
func (be *batchEdge) pull(max int) (*Batch, error) {
	if be.err != nil {
		err := be.err
		be.err = nil
		return nil, err
	}
	if be.eos {
		return nil, nil
	}
	if max <= 0 || max > be.size {
		max = be.size
	}
	if be.bn != nil {
		return be.bn.NextBatch(max)
	}
	if be.buf == nil {
		be.buf = NewBatch(be.size)
	}
	b := be.buf
	b.Reset()
	for b.Len() < max {
		row, ok, err := be.n.Next()
		if err != nil {
			if b.Len() == 0 {
				return nil, err
			}
			be.err = err
			return b, nil
		}
		if !ok {
			be.eos = true
			break
		}
		b.Append(row)
	}
	if b.Len() == 0 {
		return nil, nil
	}
	return b, nil
}

// appendBatchRows appends a batch's rows to dst. Ephemeral rows alias the
// producer's reusable slab, so they are deep-copied — through one shared
// backing array for the whole batch, not one allocation per row.
func appendBatchRows(dst []schema.Row, b *Batch) []schema.Row {
	if !b.ephemeral {
		return append(dst, b.Rows...)
	}
	total := 0
	for _, r := range b.Rows {
		total += len(r)
	}
	backing := make([]types.Datum, total)
	off := 0
	for _, r := range b.Rows {
		nr := backing[off : off+len(r) : off+len(r)]
		copy(nr, r)
		dst = append(dst, schema.Row(nr))
		off += len(r)
	}
	return dst
}

// cloneForTransfer copies a batch into a pooled batch for handoff across an
// exchange channel: the producing worker reuses its own buffer immediately,
// so the transfer must own its rows. Stable rows transfer by reference;
// ephemeral rows are carved into the transfer batch's slab.
func cloneForTransfer(b *Batch, capRows int) *Batch {
	nb := getBatch(capRows)
	if !b.ephemeral {
		nb.Rows = append(nb.Rows, b.Rows...)
		return nb
	}
	for _, r := range b.Rows {
		copy(nb.Alloc(len(r)), r)
	}
	return nb
}

// RunWith drains a node like Run, batch-at-a-time when batchSize > 0 and
// the root has a native batch path. The executor that built the tree must
// have been configured with the same BatchSize: each edge is driven over
// exactly one protocol per execution, chosen at Open time.
func RunWith(n Node, batchSize int) (rows []schema.Row, err error) {
	bn, ok := n.(BatchNode)
	if batchSize <= 0 || !ok {
		return Run(n)
	}
	if err := n.Open(); err != nil {
		if cerr := n.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	defer func() {
		if cerr := n.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	limit := n.Plan().Limit
	est := int(n.Plan().Card)
	if limit > 0 && limit < est {
		est = limit
	}
	if est < 0 {
		est = 0
	}
	if est > runPrealloc {
		est = runPrealloc
	}
	rows = make([]schema.Row, 0, est)
	for {
		max := batchSize
		if limit > 0 && limit-len(rows) < max {
			max = limit - len(rows)
		}
		b, berr := bn.NextBatch(max)
		if berr != nil {
			return rows, berr
		}
		if b == nil {
			return rows, nil
		}
		rows = appendBatchRows(rows, b)
		if limit > 0 && len(rows) >= limit {
			return rows[:limit], nil
		}
	}
}
