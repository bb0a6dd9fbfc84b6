package rosd

import (
	"container/list"
	"time"

	"ros/internal/obs"
)

// tokenBucket is a refill-on-demand token bucket: take draws one token,
// refilling rate tokens per second up to burst since the last draw. It is
// not goroutine-safe — the fairQueue's lock guards every bucket.
type tokenBucket struct {
	rate   float64 // tokens per second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64, now time.Time) tokenBucket {
	return tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// refill credits the time elapsed since the last refill.
func (b *tokenBucket) refill(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// take draws one token, reporting success and — when the bucket is empty —
// how long until the next token frees (the Retry-After hint).
func (b *tokenBucket) take(now time.Time) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// give returns n tokens (a read refused downstream of the bucket refunds its
// token so quota accounting tracks work actually admitted).
func (b *tokenBucket) give(n float64) {
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// tenantState is one tenant's slot in the fair queue: its token bucket, its
// FIFO of queued jobs, its round-robin membership, and its cached metric
// children. All fields are guarded by the owning fairQueue's lock.
type tenantState struct {
	name   string
	bucket tokenBucket

	// q/head form the FIFO: jobs push at the tail, pop at head, and the
	// backing array compacts once the dead prefix dominates.
	q    []*job
	head int

	inRing bool

	elem *list.Element // position in the tenant table's recency order

	mThrottled *obs.Counter
	gQueue     *obs.Gauge
}

func (t *tenantState) depth() int { return len(t.q) - t.head }

func (t *tenantState) push(j *job) {
	t.q = append(t.q, j)
	t.gQueue.Set(float64(t.depth()))
}

func (t *tenantState) pop() *job {
	j := t.q[t.head]
	t.q[t.head] = nil
	t.head++
	if t.head > 32 && t.head*2 >= len(t.q) {
		t.q = append(t.q[:0], t.q[t.head:]...)
		t.head = 0
	}
	t.gQueue.Set(float64(t.depth()))
	return j
}
