package rosd

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// job is one admitted read waiting for (or holding) an executor worker. The
// batch handler owns res and blocks on wg until the executor fills it.
type job struct {
	req      ReadRequest
	ctx      context.Context
	deadline time.Time // zero means no deadline
	enqueued time.Time
	res      *ReadResult
	wg       *sync.WaitGroup
}

// tenantCapacity bounds the fair queue's tenant table.
const tenantCapacity = 256

// tenantLabelSets caps each per-tenant metric vector. Eviction retires a
// tenant's labelsets, so the cap leaves room above tenantCapacity for a
// table that grows past it while every resident tenant is busy.
const tenantLabelSets = 4 * tenantCapacity

// fairQueue is the per-tenant admission and scheduling core: a token bucket
// per tenant (quota), a FIFO per tenant, and round-robin dequeue across the
// tenants with queued work, so a tenant flooding its queue delays only
// itself. The tenant table is recency-bounded: past tenantCapacity, the
// least recently seen idle tenant is evicted (its per-tenant labelsets
// retired with it).
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	rate  float64 // per-tenant token rate (reads/s); <= 0 disables quotas
	burst float64

	tenants map[string]*tenantState
	order   *list.List // recency: front = most recently seen

	ring   []*tenantState // tenants with queued jobs, in service order
	next   int            // ring index the next pop serves
	queued int
	closed bool
}

func newFairQueue(rate, burst float64) *fairQueue {
	q := &fairQueue{
		rate:    rate,
		burst:   burst,
		tenants: make(map[string]*tenantState),
		order:   list.New(),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// tenantLocked returns the state for a tenant, creating it (and evicting the
// least recently seen idle tenant past capacity) on first contact. Callers
// hold q.mu.
func (q *fairQueue) tenantLocked(name string, now time.Time) *tenantState {
	if t, ok := q.tenants[name]; ok {
		q.order.MoveToFront(t.elem)
		return t
	}
	for len(q.tenants) >= tenantCapacity {
		// Evict from the cold end, skipping tenants with queued work (they
		// are busy, not idle; the global admission gate bounds how many
		// tenants can be busy at once, so the scan terminates).
		evicted := false
		for el := q.order.Back(); el != nil; el = el.Prev() {
			t := el.Value.(*tenantState)
			if t.depth() > 0 {
				continue
			}
			q.order.Remove(el)
			delete(q.tenants, t.name)
			forgetTenant(t.name)
			mTenantEvictions.Inc()
			evicted = true
			break
		}
		if !evicted {
			break // every resident tenant is busy; grow past capacity
		}
	}
	t := &tenantState{
		name:       name,
		bucket:     newTokenBucket(q.rate, q.burst, now),
		mThrottled: mTenantThrottled.With(name),
		gQueue:     gTenantQueue.With(name),
	}
	t.elem = q.order.PushFront(t)
	q.tenants[name] = t
	gTenants.Set(float64(len(q.tenants)))
	return t
}

// forgetTenant retires every per-tenant labelset of an evicted tenant. name
// is the displayTenant label the vectors were written with.
func forgetTenant(name string) {
	gTenantQueue.Delete(name)
	mTenantThrottled.Delete(name)
	hReadSeconds.Delete(name)
	for _, o := range outcomes {
		mReads.Delete(name, o)
	}
}

// throttle draws one quota token for the tenant, reporting admission and the
// Retry-After hint when refused. With quotas disabled it always admits.
func (q *fairQueue) throttle(name string, now time.Time) (bool, time.Duration) {
	if q.rate <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenantLocked(name, now)
	ok, wait := t.bucket.take(now)
	if !ok {
		t.mThrottled.Inc()
	}
	return ok, wait
}

// refund returns one quota token to the tenant (the read was throttled-free
// but then refused by the global gate, so it consumed no capacity).
func (q *fairQueue) refund(name string, n int) {
	if q.rate <= 0 || n <= 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tenants[name]; ok {
		t.bucket.give(float64(n))
	}
}

// push enqueues a job on its tenant's FIFO and wakes one worker. It reports
// false when the queue is closed (the caller fails the job itself).
func (q *fairQueue) push(name string, j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	t := q.tenantLocked(name, j.enqueued)
	t.push(j)
	if !t.inRing {
		t.inRing = true
		q.ring = append(q.ring, t)
	}
	q.queued++
	gQueuedReads.Set(float64(q.queued))
	q.cond.Signal()
	return true
}

// pop blocks until a job is available and returns the next one in
// round-robin order across tenants: each tenant with queued work gets one
// job per turn, so a deep queue from one tenant cannot starve the others.
// It returns false once the queue is closed and empty.
func (q *fairQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.queued == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.queued == 0 {
		return nil, false
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
	t := q.ring[q.next]
	j := t.pop()
	q.queued--
	gQueuedReads.Set(float64(q.queued))
	if t.depth() == 0 {
		t.inRing = false
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
	} else {
		q.next++
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
	return j, true
}

// close marks the queue closed, wakes every worker, and returns the jobs
// still queued so the caller can fail them (handlers must never be left
// blocked on a job no worker will run).
func (q *fairQueue) close() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	var orphans []*job
	for _, t := range q.ring {
		for t.depth() > 0 {
			orphans = append(orphans, t.pop())
		}
		t.inRing = false
	}
	q.ring = nil
	q.queued = 0
	gQueuedReads.Set(0)
	q.cond.Broadcast()
	return orphans
}
