// Package fault is the repository's deterministic fault-injection layer.
// Production code registers named injection points ("stream.recompute",
// "stream.checkpoint", …) by calling Injector.Hit at the top of the guarded
// operation; tests arm those points with a Plan describing when the point
// fires (a deterministic hit-index window, a seeded per-point probability, or
// both) and what it does (return an error, sleep, panic).
//
// Like the obs layer, a nil *Injector is the disabled state: Hit on a nil
// injector is a single predictable branch, so production paths keep their
// hooks unconditionally and pay nothing when chaos testing is off.
// Determinism: given the same seed, the same plans, and the same per-point
// hit counts, the set of fired hits is identical across runs — the per-point
// PRNG is seeded from the injector seed and the point name only, and draws
// once per hit.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"spatialrepart/internal/splitmix"
)

// ErrInjected is the error Hit returns for a fired plan that specifies no
// explicit Err (and no panic): Plan{Count: 3} alone means "fail the first
// three hits with ErrInjected".
var ErrInjected = errors.New("fault: injected failure")

// Plan describes when an injection point fires and what happens when it does.
// The zero Plan never fires.
type Plan struct {
	// First is the 0-based hit index at which the window [First, First+Count)
	// of firing hits begins.
	First int
	// Count is the number of consecutive hits from First that fire; negative
	// means every hit from First on fires.
	Count int
	// Prob additionally fires any hit (outside the window) with this
	// probability, drawn from the point's deterministic seeded PRNG.
	Prob float64

	// Err is returned by Hit when the plan fires; nil falls back to
	// ErrInjected unless the plan is delay-only (Delay set, no panic).
	Err error
	// Delay is slept before Hit returns whenever the plan fires. A plan with
	// only Delay set models a slow dependency: Hit sleeps and returns nil.
	Delay time.Duration
	// Panic makes the fired hit panic — exercising the callers' recover
	// paths — instead of returning an error.
	Panic bool
}

// delayOnly reports whether the plan's sole effect is the sleep.
func (p Plan) delayOnly() bool { return p.Delay > 0 && p.Err == nil && !p.Panic }

// point is one armed injection point.
type point struct {
	plan  Plan
	hits  int64
	fired int64
	rng   uint64
}

// Injector is a set of armed injection points sharing one seed. All methods
// are safe for concurrent use; all methods on a nil *Injector are no-ops.
type Injector struct {
	mu     sync.Mutex
	seed   uint64
	points map[string]*point
}

// New returns an injector whose per-point PRNGs derive from seed.
//
//spatialvet:ignore deadexport (c) test-support hook: the chaos suites build their injectors with it
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), points: map[string]*point{}}
}

// Set arms (or re-arms) the named point with a plan, resetting its counters.
//
//spatialvet:ignore deadexport (c) test-support hook: the chaos suites arm injection points with it
func (in *Injector) Set(name string, p Plan) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(name))
	in.points[name] = &point{plan: p, rng: splitmix.Next(in.seed ^ h.Sum64())}
}

// Hit consults the named point: if the point is unarmed (or the injector is
// nil) it returns nil immediately; otherwise the hit is counted and, when the
// plan fires, the plan's effects run — sleep Delay, then panic or return the
// error. The mutex is released before sleeping or panicking, so slow or
// exploding hits never block other points.
func (in *Injector) Hit(name string) error {
	if in == nil {
		return nil
	}
	return in.hit(name)
}

func (in *Injector) hit(name string) error {
	in.mu.Lock()
	pt := in.points[name]
	if pt == nil {
		in.mu.Unlock()
		return nil
	}
	i := pt.hits
	pt.hits++
	fire := i >= int64(pt.plan.First) &&
		(pt.plan.Count < 0 || i < int64(pt.plan.First)+int64(pt.plan.Count))
	if !fire && pt.plan.Prob > 0 {
		pt.rng = splitmix.Next(pt.rng)
		fire = splitmix.Float64(pt.rng) < pt.plan.Prob
	}
	if !fire {
		in.mu.Unlock()
		return nil
	}
	pt.fired++
	plan := pt.plan
	in.mu.Unlock()

	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	if plan.Panic {
		// Exercising callers' recover paths is this package's purpose.
		panic(fmt.Sprintf("fault: injected panic at %q", name)) //spatialvet:ignore panicsite panic injection is the point's configured effect
	}
	if plan.Err != nil {
		return plan.Err
	}
	if plan.delayOnly() {
		return nil
	}
	return ErrInjected
}

// Stats returns how many times the named point was hit and how many of those
// hits fired. Zero for unarmed points and nil injectors.
//
//spatialvet:ignore deadexport (c) test-support hook: the chaos suites read hit counts with it
func (in *Injector) Stats(name string) (hits, fired int64) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if pt := in.points[name]; pt != nil {
		return pt.hits, pt.fired
	}
	return 0, 0
}
