package core

import (
	"math"
	"runtime"

	"lccs/internal/pqueue"
)

// splitBytes is the size, in full float32 rows, n·dim·4 bytes for a count
// of n candidates (λ+k−1 on a plain query), of the candidates from which
// an exact query's verify scores every other batch on a helper goroutine. Below it a second goroutine's start, the
// hand-offs and the merge cost more than the half of the gather they
// take off the caller. BenchmarkVerify's sweep chose it: splitting lost
// at 56, 158 and 419 KB, broke even at 517 KB (d128, λ = 1 000) and won
// from 1.19 MB (d960, λ = 300) (docs/PERFORMANCE.md, "Verifying on the
// idle core"). Every workload of the benchmark but static-d960 (3.87 MB)
// stays below it: churn-d16's segments ask for about 275 KB each and
// serve-* for 56 KB.
const splitBytes = 1 << 20

// helperSlots is how many handed-off batches may wait for the helper at
// once; the caller waits for a slot only when the helper is that many
// batches behind. Eight hold every odd batch of static-d960's λ = 1 000,
// so its caller never waits for a helper that is still starting (with
// two it waited 50 µs a query).
const helperSlots = 8

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
// keeps draining the CSA on the calling goroutine and scores the even
// batches into best itself; hand gives each odd batch, in stream order,
// to the helper goroutine, which scores it into its own collector of
// best's capacity; merge offers what that collector kept to best.
//
// Each odd batch carries bound, best's worst distance at the hand-off,
// and pad lowers the helper collector's worst to it, so a Euclidean row
// stops being read against the tighter of the two collectors' worsts.
// That changes nothing in the answer. Let c be the capacity and W the
// c-th nearest of all scored rows in (Dist, ID) order. A full best holds
// c candidates of the query, so W never ranks after its worst; the
// helper's worst is a candidate's in the same way or a placeholder's,
// (bound, padID), which ranks after W too. So a row that ranks among the
// final c is never farther than a bound and never stopped, and it is
// kept by whichever collector scored it: fewer than c rows rank before
// it and no placeholder does. A stopped row is rejected by its collector
// and never enters either. merge offers the helper's real rows to best,
// so best ends holding the c nearest of all scored rows, the serial
// answer bit for bit. Which batches are handed off, and each one's bound,
// depend only on batch parity and on what the caller scored before, not
// on scheduling, so the bytes read are deterministic too.
type helper struct {
	ix *Index
	// q and off are the started query's, q nil while none is.
	q   []float32
	off int
	// best is the helper's collector, of the caller's capacity.
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
// shifted by off into a collector of capacity rows, and starts the
// goroutine that serves it. It then yields once: a new goroutine waits
// in its creator's run-next slot, from which an idle processor takes it
// only after a short sleep that Linux's default timer slack stretches
// (65 µs from the go statement to the helper's first instruction,
// measured on a 2-vCPU VM); yielding runs it at once, and its own first
// yield (await) leaves it on the global run queue, where the idle
// processor finds it.
func (h *helper) start(q []float32, off, capacity int) {
	h.q, h.off, h.bytes = q, off, 0
	h.best.Reset(capacity)
	helpers <- h
	go helpVerify()
	runtime.Gosched()
}

// hand passes a copy of ids to the helper, with best's worst distance
// (+Inf while best is not full) as its bound.
func (h *helper) hand(ids []int32, best *pqueue.KBest) {
	s := await(h.free)
	h.n[s] = copy(h.ids[s][:], ids)
	h.bound[s] = math.Inf(1)
	if w, ok := best.Worst(); ok {
		h.bound[s] = w
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
		for _, id := range h.ids[s][:h.n[s]] {
			h.ix.store.PrefetchRow(int(id))
		}
		h.pad(h.bound[s])
		h.bytes += h.ix.scoreExact(h.ids[s][:h.n[s]], h.dists[:], h.q, h.off, &h.best)
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
// from a caller's collector not yet full, pads nothing.
func (h *helper) pad(bound float64) {
	for bound < math.Inf(1) && h.best.Add(padID, bound) {
	}
}

// merge ends the query: it waits for the helper's last batch, offers
// every real row the helper kept to best and returns the bytes the
// helper read.
func (h *helper) merge(best *pqueue.KBest) int64 {
	h.stop()
	h.buf = h.best.AppendSorted(h.buf[:0])
	for _, nb := range h.buf {
		if nb.ID != padID {
			best.Add(nb.ID, nb.Dist)
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
	h.q = nil
}
