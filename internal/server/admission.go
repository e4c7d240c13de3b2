package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrOverloaded is returned by admission.acquire when the waiting queue
// is already at capacity; the HTTP layer maps it to 503.
var ErrOverloaded = errors.New("server: admission queue full")

// admission is a semaphore-based admission controller: at most inFlight
// requests hold a slot concurrently, at most maxQueue more wait for one,
// and everything beyond that is rejected immediately so overload sheds
// load instead of growing latency without bound. Waiters respect their
// request context, so a per-request deadline bounds time-in-queue.
type admission struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
	rejected atomic.Uint64
	timeouts atomic.Uint64
}

// newAdmission returns a controller admitting inFlight concurrent
// requests with a waiting queue of maxQueue. Non-positive inFlight
// selects 1; negative maxQueue selects 0 (no waiting, immediate 503
// when saturated).
func newAdmission(inFlight, maxQueue int) *admission {
	if inFlight <= 0 {
		inFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots:    make(chan struct{}, inFlight),
		maxQueue: int64(maxQueue),
	}
}

// tryAcquire takes a slot if one is free now, without waiting; true
// must be paired with release. A caller tries it before building the
// deadline context acquire waits under, which only a wait needs.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquire takes a slot, waiting while the queue has room. It returns
// ErrOverloaded when the queue is full and the context's error when the
// deadline expires first. A nil return must be paired with release.
func (a *admission) acquire(ctx context.Context) error {
	if a.tryAcquire() {
		return nil
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.rejected.Add(1)
		return ErrOverloaded
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		// Only a true deadline expiry counts as a wait timeout; a
		// client dropping its connection while queued is not one.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			a.timeouts.Add(1)
		}
		return ctx.Err()
	}
}

// release returns a slot taken by a successful acquire.
func (a *admission) release() { <-a.slots }

// capacity returns the number of concurrent execution slots.
func (a *admission) capacity() int { return cap(a.slots) }

// inFlight returns the number of requests currently holding a slot.
func (a *admission) inFlight() int { return len(a.slots) }

// queueDepth returns the number of requests waiting for a slot.
func (a *admission) queueDepth() int64 { return a.queued.Load() }

// stats reads the controller's live state and counters.
func (a *admission) stats() admissionStats {
	return admissionStats{InFlight: a.inFlight(), QueueDepth: a.queueDepth(),
		Rejected: a.rejected.Load(), WaitTimeouts: a.timeouts.Load()}
}
