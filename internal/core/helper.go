package core

import (
	"math"
	"runtime"

	"lccs/internal/pqueue"
)

// splitBytes and drainBytes decide how verify scores an exact query of
// n candidates (split). Its single-core work is estimated in bytes as
// n·(drainBytes + row), row being dim·4: drainBytes is what draining one
// candidate from the CSA costs, in row bytes scored in the same time. A
// query whose estimate is at least splitBytes starts a helper goroutine;
// below it a second goroutine's start, the hand-offs and the end of the
// query cost more than the helper takes off the caller. A started query
// whose rows are narrower than 2·drainBytes is pipelined: the caller only
// drains and the helper scores every batch. Wider rows keep parity: the
// caller scores the even batches and the helper the odd ones. With D the
// drain's time and S the scoring's, parity takes D + S/2 and the pipeline
// max(D, S), so the pipeline is the faster while S < 2·D.
//
// BenchmarkVerify's sweeps chose both (docs/PERFORMANCE.md, "Verifying on
// the idle core" and "Pipelining drain-bound queries"). Splitting every
// query, pipelined or by parity, lost at λ = 100 (1.22–1.30 times the
// serial µs/op at d16, 1.23–1.61 at d128, 1.03–1.20 at d960), was even at
// d128, λ = 300, and won from d16, λ = 1 000 (0.86), d128, λ = 800
// (0.73–0.89) and d960, λ = 300 (0.87). Those estimates are 119, 167,
// 530 and 475 KB against 1.10, 1.24 and 1.50 MB with drainBytes = 1 KB,
// so splitBytes stays 1 MB and drainBytes is 1 KB; rows under the pipeline
// are then d16's and d128's, and d960's keep parity, as measured there:
// the pipeline took 0.85 and 0.74 of the serial µs/op at d16, λ = 3 000
// and d128, λ = 1 600, where parity took 1.01 and 0.79, and at d960 it
// lost (1.14–1.28 from λ = 300) where parity took 0.87–1.08. Of the
// benchmark's workloads static-d960 (λ = 1 000, 4.9 MB) keeps parity,
// churn-d16's larger segment is pipelined, static-d16 and serve-read
// (109 candidates) stay serial, and serve-mixed's late queries (about
// 1 309 d128 candidates, 2 MB) are pipelined.
const (
	splitBytes = 1 << 20
	drainBytes = 1 << 10
)

// split reports whether verify scores n candidates of ix with the helper,
// and whether the helper then scores every batch (pipelined) rather than
// the odd ones. It reads only n and the dimension, so it does not depend
// on scheduling or GOMAXPROCS.
func (ix *Index) split(n int) (split, pipelined bool) {
	row := int64(ix.store.Dim()) * 4
	split = int64(n)*(drainBytes+row) >= splitBytes
	return split, split && row < 2*drainBytes
}

// helperSlots is how many handed-off batches may wait for the helper at
// once; the caller waits for a slot only when the helper is that many
// batches behind. Eight held every odd batch of static-d960's λ = 1 000,
// so its caller never waited for a helper that was still starting (with
// two it waited 50 µs a query). Sixty-four hold every batch of a
// pipelined query to λ ≈ 4 000, so where no core is idle the caller
// drains to the end before it yields to the helper, rather than trading
// the processor with it every eight batches: in BenchmarkVerify's
// saturated cells, split queries took 1.22 (sift, λ = 1 600), 1.20 (d16,
// λ = 3 000) and 1.13 (gist, λ = 1 000) times the parent's serial or
// eight-slot µs/op with eight slots, and 1.04, 1.08 and 1.01 with 64 (8
// rounds), at the same µs/op one query at a time.
const helperSlots = 64

// padID is the id of the placeholder rows that pad the helper's
// collector down to the caller's bound. It ranks after every real id at
// an equal distance, and merge drops it.
const padID = math.MaxInt

// helpers carries each split query's helper to the goroutine started
// for it. Every `go helpVerify()` follows one send, so each such
// goroutine finds a query's helper waiting, takes it and exits when that
// query ends; a goroutine never outlives its query nor waits behind a
// pooled context. The buffer is what lets the send come first; a send
// waits only while 64 helpers wait for goroutines not yet run, many more
// queries in flight at once than a machine has processors.
var helpers = make(chan *helper, 64)

// helper is verify's second scorer, kept in the pooled searchCtx (made by
// its first split query) so that a split query allocates nothing. verify
// keeps draining the CSA on the calling goroutine and hand gives batches,
// in stream order, to the helper goroutine. Pipelined, it hands every
// batch and the helper scores them straight into the query's collector,
// which the caller neither reads nor writes until merge: the batches are
// scored in stream order into one collector, as the serial loop scores
// them, so the answer and the bytes read are the serial ones. By parity,
// the caller scores the even batches into its collector and hands the odd
// ones, which the helper scores into a collector of its own, of the same
// capacity; merge offers what that collector kept to the caller's.
//
// Each odd batch of a parity query carries bound, the caller's worst
// distance at the hand-off, and pad lowers the helper collector's worst
// to it, so a Euclidean row stops being read against the tighter of the
// two collectors' worsts. That changes nothing in the answer. Let c be
// the capacity and W the c-th nearest of all scored rows in (Dist, ID)
// order. A full collector of the caller's holds c candidates of the
// query, so W never ranks after its worst; the helper's worst is a
// candidate's in the same way or a placeholder's, (bound, padID), which
// ranks after W too. So a row that ranks among the final c is never
// farther than a bound and never stopped, and it is kept by whichever
// collector scored it: fewer than c rows rank before it and no
// placeholder does. A stopped row is rejected by its collector and never
// enters either. merge offers the helper's real rows to the caller's
// collector, which ends holding the c nearest of all scored rows, the
// serial answer bit for bit. Which batches are handed off, and each one's
// bound, depend only on n, the batch's index and what the caller scored
// before, not on scheduling, so the bytes read are deterministic too.
type helper struct {
	ix *Index
	// q and off are the started query's, q nil while none is.
	q   []float32
	off int
	// dst is the collector the helper scores into: the query's own when
	// pipelined, else best, the helper's, of the caller's capacity.
	dst  *pqueue.KBest
	best pqueue.KBest
	// slot s holds a handed-off batch: n[s] ids and the caller's bound.
	ids   [helperSlots][verifyBatch]int32
	n     [helperSlots]int
	bound [helperSlots]float64
	dists [verifyBatch]float64
	bytes int64
	buf   []pqueue.Neighbor
	// todo carries filled slots to the helper, -1 ending the query; free
	// returns them to the caller; done signals that the helper has
	// scored its last batch.
	todo chan int
	free chan int
	done chan int
}

// newHelper makes the helper of one searchCtx of ix.
func newHelper(ix *Index) *helper {
	h := &helper{
		ix:   ix,
		todo: make(chan int, helperSlots+1),
		free: make(chan int, helperSlots),
		done: make(chan int, 1),
	}
	for s := 0; s < helperSlots; s++ {
		h.free <- s
	}
	return h
}

// start arms h for one query that scores q's candidates under ids
// shifted by off, into dst when pipelined and otherwise into a collector
// of dst's capacity, and starts the goroutine that serves it. It then
// yields once: a new goroutine waits in its creator's run-next slot, from
// which an idle processor takes it only after a short sleep that Linux's
// default timer slack stretches (65 µs from the go statement to the
// helper's first instruction, measured on a 2-vCPU VM); yielding runs it
// at once, and its own first yield (await) leaves it on the global run
// queue, where the idle processor finds it.
func (h *helper) start(q []float32, off int, dst *pqueue.KBest, pipelined bool) {
	h.q, h.off, h.bytes = q, off, 0
	h.dst = dst
	if !pipelined {
		h.best.Reset(dst.Cap())
		h.dst = &h.best
	}
	helpers <- h
	go helpVerify()
	runtime.Gosched()
}

// hand passes a copy of ids to the helper. A parity batch carries dst's
// worst distance (+Inf while dst is not full) as its bound; a pipelined
// one carries +Inf, and hand does not read dst, which the helper owns.
func (h *helper) hand(ids []int32, dst *pqueue.KBest) {
	s := await(h.free)
	h.n[s] = copy(h.ids[s][:], ids)
	h.bound[s] = math.Inf(1)
	if h.dst == &h.best {
		if w, ok := dst.Worst(); ok {
			h.bound[s] = w
		}
	}
	h.todo <- s
}

// helpVerify is the helper goroutine: it takes one query's helper and
// scores the batches handed to it, in order, until the query ends. It
// hints each batch's rows to the cache itself (verify leaves them alone),
// so they land on the core that reads them.
func helpVerify() {
	h := <-helpers
	for s := await(h.todo); s >= 0; s = await(h.todo) {
		ids := h.ids[s][:h.n[s]]
		for _, id := range ids {
			h.ix.store.PrefetchRow(int(id))
		}
		h.pad(h.bound[s])
		h.bytes += h.ix.scoreExact(ids, h.dists[:], h.q, h.off, h.dst)
		h.free <- s
	}
	h.done <- 0
}

// await receives from c without parking: between looks it yields its
// processor to any other runnable goroutine. A parked receiver would cost
// its sender a thread wake-up, several microseconds on a virtual machine
// while a batch takes tens, and the runtime a waiter record, which it
// sometimes allocates. The channels have room for every value that can
// be pending in them, so no send waits either (helpers' only once 64
// queries start a helper at the same moment).
func await(c chan int) int {
	for {
		select {
		case v := <-c:
			return v
		default:
			runtime.Gosched()
		}
	}
}

// pad fills h.best with placeholder rows (bound, padID) until every row
// it keeps ranks at or before one, so its worst is at most bound: the
// placeholders take the empty places and displace every row farther than
// bound, none of which can rank among the final nearest. A bound of +Inf,
// from a caller's collector not yet full or on a pipelined batch, pads
// nothing.
func (h *helper) pad(bound float64) {
	for bound < math.Inf(1) && h.best.Add(padID, bound) {
	}
}

// merge ends the query: it waits for the helper's last batch, offers
// every real row a parity helper kept to dst and returns the bytes the
// helper read. A pipelined helper scored into dst itself.
func (h *helper) merge(dst *pqueue.KBest) int64 {
	parity := h.dst == &h.best
	h.stop()
	if parity {
		h.buf = h.best.AppendSorted(h.buf[:0])
		for _, nb := range h.buf {
			if nb.ID != padID {
				dst.Add(nb.ID, nb.Dist)
			}
		}
	}
	return h.bytes
}

// stop ends the helper goroutine of a started query and waits for it to
// exit; once it has, stop does nothing. verify defers it, so a query that
// panics mid-drain does not leave the goroutine looking for batches.
func (h *helper) stop() {
	if h.q == nil {
		return
	}
	h.todo <- -1
	await(h.done)
	h.q, h.dst = nil, nil // the pool keeps no caller's query or collector
}
