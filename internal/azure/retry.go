package azure

import (
	"sync"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/storerr"
)

// RetryPolicy governs how transient storage errors are retried — the "robust
// retry mechanisms" the paper's Section 5.2 found indispensable at scale.
type RetryPolicy struct {
	// MaxAttempts bounds total tries (≥ 1).
	MaxAttempts int
	// Backoff is the wait before the second attempt.
	Backoff time.Duration
	// Multiplier grows the backoff each further attempt (≥ 1).
	Multiplier float64
	// MaxBackoff caps the grown backoff (0 = uncapped).
	MaxBackoff time.Duration
	// Jitter spreads each wait uniformly over [(1-Jitter)·backoff, backoff].
	// Without it, a closed-loop client pool that hits ServerBusy at the same
	// instant retries in lockstep and re-collides on every attempt. Must be
	// in [0, 1]; 0 (the zero value) disables jitter.
	Jitter float64
	// Rand supplies the jitter draws. Required when Jitter > 0: it must be a
	// per-client stream (simrand.RNG.Fork) so runs stay reproducible and
	// adding a client never perturbs another client's schedule.
	Rand *simrand.RNG
}

// WithJitter returns a copy of the policy that jitters each backoff by up to
// the given fraction, drawing from rng.
func (rp RetryPolicy) WithJitter(fraction float64, rng *simrand.RNG) RetryPolicy {
	if fraction < 0 || fraction > 1 {
		panic("azure: retry jitter fraction must be in [0, 1]")
	}
	if fraction > 0 && rng == nil {
		panic("azure: retry jitter requires a simrand stream")
	}
	rp.Jitter = fraction
	rp.Rand = rng
	return rp
}

// DefaultRetryPolicy mirrors the storage client library's classic
// exponential policy: 4 attempts, 3 s initial backoff, doubling.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: 3 * time.Second, Multiplier: 2}
}

// NoRetry performs exactly one attempt.
func NoRetry() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

// Retry is RetryPolicy's state machine — the only implementation of the
// retry loop: attempt → classify → jittered backoff (Actor.Sleep) →
// attempt, until an attempt succeeds, fails non-retryably (conflicts,
// not-found) or the attempt budget is spent. A flat client embeds one,
// Inits it once and Begins it for every operation, so retries allocate
// nothing; RetryPolicy.Do drives a pooled one on a blocking caller.
type Retry struct {
	// Policy governs the retries of the next Begin.
	Policy RetryPolicy

	a       *sim.Actor
	attempt func()      // issues one attempt, whose completion calls Done
	done    func(error) // receives the terminal outcome
	tries   int
	backoff time.Duration

	onBackoff func() // cached: the next attempt, after a backoff sleep
}

// Init prepares an embedded (zero-value) Retry: attempt issues one try of
// the operation and must call Done with its outcome; done receives the
// operation's terminal error (nil on success).
func (r *Retry) Init(attempt func(), done func(error)) {
	r.attempt, r.done = attempt, done
	r.onBackoff = r.try
}

// Begin starts one operation's retry loop on actor a with its first
// attempt.
func (r *Retry) Begin(a *sim.Actor) {
	r.a = a
	r.tries = 0
	r.backoff = r.Policy.Backoff
	r.try()
}

func (r *Retry) try() {
	r.tries++
	r.attempt()
}

// Done classifies an attempt's outcome: success, a non-retryable error or
// the last allowed attempt ends the operation; a retryable failure sleeps
// the (jittered) backoff and tries again — immediately when the backoff is
// zero.
func (r *Retry) Done(err error) {
	rp := &r.Policy
	if err == nil || !storerr.IsRetryable(err) || r.tries >= max(rp.MaxAttempts, 1) {
		r.a = nil
		r.done(err)
		return
	}
	if r.backoff <= 0 {
		r.try()
		return
	}
	wait := r.backoff
	if rp.Jitter > 0 {
		if rp.Rand == nil {
			panic("azure: RetryPolicy.Jitter set without a Rand stream")
		}
		wait = time.Duration(float64(wait) * (1 - rp.Jitter*rp.Rand.Float64()))
	}
	r.backoff = time.Duration(float64(r.backoff) * rp.Multiplier)
	if rp.MaxBackoff > 0 && r.backoff > rp.MaxBackoff {
		r.backoff = rp.MaxBackoff
	}
	r.a.Sleep(wait, r.onBackoff)
}

// retryCall is one blocking Do: a pooled Retry whose attempts Do runs in
// its own frame, so the caller's op closure never escapes to the heap.
type retryCall struct {
	Retry
	due bool // the machine asked for an attempt
	err error
}

// retryCalls pools Do's state; Do may run on engines driven from several
// goroutines at once (the cell scheduler), so the pool is the
// concurrency-safe sync.Pool.
var retryCalls = sync.Pool{New: func() any {
	c := &retryCall{}
	c.Init(c.request, c.finished)
	return c
}}

func (c *retryCall) request()           { c.due = true }
func (c *retryCall) finished(err error) { c.err = err }

// Do runs op, retrying retryable storage errors per the policy. It returns
// nil on eventual success, the last error otherwise. Non-retryable errors
// (conflicts, not-found) return immediately. Do drives a Retry on the
// calling process: each time the machine asks for an attempt Do runs op
// and hands its outcome back, and the machine's backoff sleeps park the
// process.
func (rp RetryPolicy) Do(p *sim.Proc, op func() error) error {
	c := retryCalls.Get().(*retryCall)
	c.Policy = rp
	p.Drive(c.Begin)
	for c.due {
		c.due = false
		err := op()
		p.Drive(func(*sim.Actor) { c.Done(err) })
	}
	err := c.err
	c.Policy, c.err = RetryPolicy{}, nil
	retryCalls.Put(c)
	return err
}
