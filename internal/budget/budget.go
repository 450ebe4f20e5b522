// Package budget bounds the resources one analysis unit (a page analysis
// or a hotspot policy check) may consume. The paper's checks are worst-case
// superlinear — CFG ∩ FSA intersection and the Earley derivability search
// can blow up on adversarial or auto-generated inputs — so a production
// deployment must bound every request. Exceeding a budget must never turn
// into a silent pass: the policy layer degrades an over-budget hotspot to
// an explicit "analysis incomplete" outcome that is reported like a
// finding, preserving the no-report ⇒ no-SQLCIV direction of Theorem 3.4.
//
// A Budget carries a context (cancellation + global deadline), an optional
// per-unit deadline, a step allowance (Earley items + intersection states),
// and a memory high-water estimate. Hot loops call Step and Grow; when a
// limit is exceeded the Budget panics with *Exceeded, which the owning
// worker recovers at the unit boundary (the same recovery that isolates
// genuine panics). A nil *Budget is valid and means "unlimited": every
// method is a no-op, so unbudgeted callers pay nothing.
//
// A Budget is owned by a single goroutine; give each worker its own.
package budget

import (
	"context"
	"fmt"
	"time"
)

// Reason classifies why an analysis unit was cut short.
type Reason uint8

const (
	ReasonNone      Reason = iota
	ReasonCancelled        // context cancelled
	ReasonDeadline         // wall-clock deadline (global or per-unit) passed
	ReasonSteps            // step allowance exhausted
	ReasonMemory           // memory high-water estimate exceeded
	ReasonPanic            // recovered panic inside the unit
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonCancelled:
		return "cancelled"
	case ReasonDeadline:
		return "deadline-exceeded"
	case ReasonSteps:
		return "step-limit"
	case ReasonMemory:
		return "memory-limit"
	case ReasonPanic:
		return "panic"
	}
	return "unknown"
}

// Exceeded is the control-flow sentinel a Budget panics with. It implements
// error so degraded outcomes can also travel as ordinary errors (phase 1).
type Exceeded struct {
	Reason Reason
	Detail string
}

func (e *Exceeded) Error() string {
	if e.Detail == "" {
		return "budget exceeded: " + e.Reason.String()
	}
	return "budget exceeded: " + e.Reason.String() + ": " + e.Detail
}

// Limits configures resource bounds. The zero value means unlimited
// everything — analyses behave exactly as if no budget existed.
type Limits struct {
	// Timeout bounds the whole run's wall-clock time (applied by the core
	// driver as a context deadline covering both phases).
	Timeout time.Duration
	// HotspotTimeout bounds each hotspot policy check's wall-clock time.
	HotspotTimeout time.Duration
	// MaxSteps bounds the abstract step count of one unit: Earley items
	// added plus intersection items discovered plus fixpoint iterations.
	MaxSteps int64
	// MaxMemBytes bounds one unit's estimated memory high-water mark. The
	// estimate covers the Figure 7 worklist behind intersection, the FST
	// image and witnesses: its items, its hyperedges and the productions
	// it materializes. Nothing else is counted; Earley parses are bounded
	// by MaxSteps.
	MaxMemBytes int64
}

// checkEvery is how many steps pass between wall-clock/context probes; it
// keeps time.Now out of the per-item cost.
const checkEvery = 4096

// Budget meters one analysis unit. See the package comment for the
// contract; the zero-value-pointer (nil) Budget is unlimited.
type Budget struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	maxSteps    int64
	maxMem      int64
	steps       int64
	mem         int64
	sinceProbe  int64
}

// New returns a Budget for one unit under ctx: the unit deadline is the
// earlier of ctx's deadline and now + l.HotspotTimeout. New returns nil —
// the unlimited budget — when neither ctx nor l can ever trip, so fully
// unbudgeted runs skip metering entirely.
func New(ctx context.Context, l Limits) *Budget {
	b := &Budget{ctx: ctx, maxSteps: l.MaxSteps, maxMem: l.MaxMemBytes}
	if dl, ok := ctx.Deadline(); ok {
		b.deadline, b.hasDeadline = dl, true
	}
	if l.HotspotTimeout > 0 {
		if dl := time.Now().Add(l.HotspotTimeout); !b.hasDeadline || dl.Before(b.deadline) {
			b.deadline, b.hasDeadline = dl, true
		}
	}
	if !b.hasDeadline && b.maxSteps == 0 && b.maxMem == 0 && ctx.Done() == nil {
		return nil
	}
	return b
}

// Meter returns a budget that never trips and only counts: the steps and
// estimated bytes a unit charges, for a caller that must learn them while
// running unbudgeted.
func Meter() *Budget { return &Budget{ctx: context.Background()} }

// Fits reports whether b can afford steps more steps and bytes more of
// estimated memory without exceeding either limit. Step and Grow only add,
// so a unit whose totals fit trips neither limit on the way there. The nil
// budget affords everything.
func (b *Budget) Fits(steps, bytes int64) bool {
	if b == nil {
		return true
	}
	return (b.maxSteps == 0 || b.steps+steps <= b.maxSteps) &&
		(b.maxMem == 0 || b.mem+bytes <= b.maxMem)
}

// Step consumes n abstract steps, panicking with *Exceeded when the
// allowance runs out; every checkEvery steps it also probes the context and
// the deadline.
func (b *Budget) Step(n int64) {
	if b == nil {
		return
	}
	b.steps += n
	if b.maxSteps > 0 && b.steps > b.maxSteps {
		panic(&Exceeded{Reason: ReasonSteps,
			Detail: fmt.Sprintf("%d steps used, limit %d", b.steps, b.maxSteps)})
	}
	b.sinceProbe += n
	if b.sinceProbe >= checkEvery {
		b.sinceProbe = 0
		b.Check()
	}
}

// Grow records bytes more of estimated live memory, panicking when the
// high-water limit is exceeded.
func (b *Budget) Grow(bytes int64) {
	if b == nil {
		return
	}
	b.mem += bytes
	if b.maxMem > 0 && b.mem > b.maxMem {
		panic(&Exceeded{Reason: ReasonMemory,
			Detail: fmt.Sprintf("~%d bytes estimated, limit %d", b.mem, b.maxMem)})
	}
}

// Check probes cancellation and the deadline immediately, panicking with
// *Exceeded when either has tripped. Hot loops get this via Step's
// periodic probe; unit boundaries call it directly.
func (b *Budget) Check() {
	if b == nil {
		return
	}
	if err := b.ctx.Err(); err != nil {
		reason := ReasonCancelled
		if err == context.DeadlineExceeded {
			reason = ReasonDeadline
		}
		panic(&Exceeded{Reason: reason, Detail: err.Error()})
	}
	if b.hasDeadline && time.Now().After(b.deadline) {
		panic(&Exceeded{Reason: ReasonDeadline, Detail: "unit deadline passed"})
	}
}

// AsExceeded converts a recovered panic value into an *Exceeded: a budget
// sentinel passes through unchanged, anything else is wrapped as
// ReasonPanic with the value printed into Detail. Use it in the deferred
// recovery at a unit boundary so budget trips and genuine panics degrade
// through one path.
func AsExceeded(r any) *Exceeded {
	if e, ok := r.(*Exceeded); ok {
		return e
	}
	return &Exceeded{Reason: ReasonPanic, Detail: fmt.Sprint(r)}
}

// Steps returns the steps consumed so far.
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps
}

// MemHigh returns the memory high-water estimate in bytes.
func (b *Budget) MemHigh() int64 {
	if b == nil {
		return 0
	}
	return b.mem
}
