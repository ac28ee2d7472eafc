package server

import (
	"context"
	"sync"
	"time"
)

// admission is the bounded-concurrency gate in front of every query handler:
// at most maxInFlight requests execute at once, at most maxQueue more wait
// for a slot, and every waiter carries a deadline (the configured queue wait,
// clipped by the request's own context). Anything beyond that is shed
// immediately — the load-shedding contract is that an overloaded server says
// "503, retry later" in microseconds instead of stacking up goroutines until
// it falls over.
//
// Draining flips the gate shut: nothing new is admitted, queued waiters are
// rejected, and the drained channel closes once the last in-flight request
// releases — that is the graceful-shutdown barrier.
type admission struct {
	mu          sync.Mutex
	maxInFlight int
	maxQueue    int

	inflight int
	waiters  []*waiter // FIFO; len(waiters) is the queue depth
	draining bool
	drained  chan struct{} // closed when draining && inflight == 0

	// OnQueued, if set, fires the moment a request enters the wait queue —
	// not when it leaves — so queueing decisions are observable while the
	// waiter is still waiting.
	OnQueued func()
}

// waiter is one queued request. Its channel is buffered so the releasing
// goroutine can hand a verdict over without blocking while holding the lock:
// true = slot transferred (admitted), false = drain began (rejected).
type waiter struct {
	ch chan bool
}

func newAdmission(maxInFlight, maxQueue int) *admission {
	return &admission{
		maxInFlight: maxInFlight,
		maxQueue:    maxQueue,
		drained:     make(chan struct{}),
	}
}

// Admit blocks until the request holds an in-flight slot, or sheds it.
// queued reports whether the request had to wait (for metrics). The caller
// must pair a nil return with exactly one Release().
func (a *admission) Admit(ctx context.Context, clock Clock, maxWait time.Duration) (queued bool, err error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return false, ErrDraining
	}
	if a.inflight < a.maxInFlight {
		a.inflight++
		a.mu.Unlock()
		return false, nil
	}
	if len(a.waiters) >= a.maxQueue {
		a.mu.Unlock()
		return false, ErrOverloaded.WithDetail("in-flight limit %d reached, queue of %d full", a.maxInFlight, a.maxQueue)
	}
	w := &waiter{ch: make(chan bool, 1)}
	a.waiters = append(a.waiters, w)
	if a.OnQueued != nil {
		a.OnQueued()
	}
	a.mu.Unlock()

	timeout := clock.After(maxWait)
	select {
	case ok := <-w.ch:
		if ok {
			return true, nil
		}
		return true, ErrDraining
	case <-timeout:
	case <-ctx.Done():
	}

	// The wait expired (or the client gave up). Leave the queue — unless a
	// releaser popped us concurrently, in which case the slot is already
	// ours: a verdict was sent under the lock, so after removeWaiter fails
	// the channel read below cannot block.
	a.mu.Lock()
	if a.removeWaiter(w) {
		a.mu.Unlock()
		if ctx.Err() != nil {
			return true, ErrOverloaded.WithDetail("request deadline expired after %v in the wait queue", maxWait)
		}
		return true, ErrOverloaded.WithDetail("no slot freed within the %v queue wait", maxWait)
	}
	a.mu.Unlock()
	if ok := <-w.ch; ok {
		return true, nil
	}
	return true, ErrDraining
}

// removeWaiter unlinks w from the queue, reporting whether it was still
// queued. Caller holds a.mu.
func (a *admission) removeWaiter(w *waiter) bool {
	for i, q := range a.waiters {
		if q == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Release returns an in-flight slot. If a waiter is queued (and the server is
// not draining) the slot transfers directly — the in-flight count never dips,
// so shedding decisions stay exact under handoff races.
func (a *admission) Release() {
	a.mu.Lock()
	if !a.draining && len(a.waiters) > 0 {
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		w.ch <- true // buffered: never blocks
		a.mu.Unlock()
		return
	}
	a.inflight--
	a.checkDrainedLocked()
	a.mu.Unlock()
}

// BeginDrain shuts the gate: future admits fail with ErrDraining and every
// queued waiter is rejected now (they hold no slot, so completing them is
// not part of the drain contract — only admitted requests are).
func (a *admission) BeginDrain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return
	}
	a.draining = true
	for _, w := range a.waiters {
		w.ch <- false // buffered: never blocks
	}
	a.waiters = nil
	a.checkDrainedLocked()
}

// checkDrainedLocked closes the drain barrier once the last admitted request
// has released. Caller holds a.mu.
func (a *admission) checkDrainedLocked() {
	if a.draining && a.inflight == 0 {
		select {
		case <-a.drained:
		default:
			close(a.drained)
		}
	}
}

// AwaitDrained blocks until every admitted request has released, or ctx
// expires (the drain deadline).
func (a *admission) AwaitDrained(ctx context.Context) error {
	select {
	case <-a.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Depth returns the current in-flight and queued counts (for gauges).
func (a *admission) Depth() (inflight, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, len(a.waiters)
}
