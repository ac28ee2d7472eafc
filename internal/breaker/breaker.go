// Package breaker is the repository's shared circuit-breaker state machine
// (DESIGN.md §3.16): capped exponential backoff with deterministic seeded
// jitter, a closed → open transition after a configurable number of
// CONSECUTIVE failures, and a single half-open probe once the backoff
// deadline passes. It was extracted from internal/stream so every layer that
// fronts an unreliable dependency — the stream's recompute loop, the cluster
// coordinator's per-backend fetch path — shares one tested implementation
// instead of drifting copies.
//
// A Breaker is NOT self-locking: callers own the synchronization (the stream
// mutates its breaker under the aggregate mutex; the coordinator keeps one
// breaker per backend behind a per-backend mutex). All scheduling is driven
// by the time.Time values the caller passes in, so fake-clock chaos suites
// control it completely.
package breaker

import (
	"time"

	"spatialrepart/internal/splitmix"
)

// State is the breaker's serving state.
type State int

const (
	// Closed: attempts proceed normally (subject to the post-failure retry
	// backoff).
	Closed State = iota
	// Open: the consecutive-failure threshold was reached; attempts are
	// refused until the backoff deadline passes.
	Open
	// HalfOpen: the backoff deadline passed while open and exactly one probe
	// attempt is in flight; other callers keep being refused.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is the retry/backoff and circuit-breaker bookkeeping.
//
// State machine: every failed attempt schedules the next attempt at
// now + jitter(backoff) and doubles the (capped) backoff; once `threshold`
// CONSECUTIVE failures accumulate the breaker opens. An open breaker admits
// exactly one probe after the deadline (half-open); the probe's success
// closes the breaker and resets the backoff, its failure re-opens with a
// further-doubled backoff. The jitter is drawn from a seeded SplitMix64
// stream, so the whole schedule is deterministic given the seed and the
// failure sequence.
type Breaker struct {
	state       State
	threshold   int           // consecutive failures that open the breaker
	consecutive int           // consecutive failures so far
	opens       int           // times the breaker transitioned to open
	initial     time.Duration // backoff after the first failure
	max         time.Duration // backoff cap
	backoff     time.Duration // next scheduled backoff
	retryAt     time.Time     // no attempts before this instant
	rng         uint64        // SplitMix64 state for the jitter
}

// New returns a closed breaker that opens after `threshold` consecutive
// failures, backing off from `initial` doubling up to `max`, with jitter
// drawn from the seeded stream.
func New(threshold int, initial, max time.Duration, seed int64) *Breaker {
	return &Breaker{
		threshold: threshold,
		initial:   initial,
		max:       max,
		backoff:   initial,
		rng:       uint64(seed),
	}
}

// Allow reports whether an attempt may proceed at `now`, performing the
// open → half-open transition when the backoff deadline has passed. While
// half-open (a probe in flight) all further attempts are refused.
func (b *Breaker) Allow(now time.Time) bool {
	switch b.state {
	case Closed:
		return !now.Before(b.retryAt)
	case Open:
		if now.Before(b.retryAt) {
			return false
		}
		b.state = HalfOpen
		return true
	case HalfOpen:
		return false
	}
	return true
}

// Success records a successful attempt: the breaker closes and the retry
// schedule resets.
func (b *Breaker) Success() {
	b.state = Closed
	b.consecutive = 0
	b.backoff = b.initial
	b.retryAt = time.Time{}
}

// Failure records a failed attempt at `now`: the next attempt is pushed
// jitter(backoff) into the future, the backoff doubles (capped at max), and
// the breaker opens once the consecutive-failure threshold is reached (a
// failed half-open probe re-opens immediately).
func (b *Breaker) Failure(now time.Time) {
	b.consecutive++
	b.retryAt = now.Add(b.jittered(b.backoff))
	if b.backoff < b.max {
		b.backoff *= 2
		if b.backoff > b.max {
			b.backoff = b.max
		}
	}
	wasOpen := b.state != Closed
	if wasOpen || b.consecutive >= b.threshold {
		if b.state != Open {
			b.opens++
		}
		b.state = Open
	}
}

// State returns the breaker's current state.
func (b *Breaker) State() State { return b.state }

// Consecutive returns the current consecutive-failure streak.
func (b *Breaker) Consecutive() int { return b.consecutive }

// Opens returns how many times the breaker transitioned to open.
func (b *Breaker) Opens() int { return b.opens }

// Backoff returns the next scheduled (pre-jitter) backoff.
func (b *Breaker) Backoff() time.Duration { return b.backoff }

// RetryAt returns the instant before which Allow refuses attempts.
func (b *Breaker) RetryAt() time.Time { return b.retryAt }

// jittered scales d by a deterministic factor in [0.5, 1.0): full-jitter's
// thundering-herd protection without full-jitter's nondeterminism.
func (b *Breaker) jittered(d time.Duration) time.Duration {
	b.rng = splitmix.Next(b.rng)
	f := 0.5 + 0.5*splitmix.Float64(b.rng)
	return time.Duration(float64(d) * f)
}
