package rosd

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ros/internal/obs"
)

// TestFairnessRoundRobinOrder pins the dequeue order: one job per tenant
// per turn in ring order, FIFO within a tenant, and a drained tenant leaves
// the ring.
func TestFairnessRoundRobinOrder(t *testing.T) {
	q := newFairQueue(0, 0)
	defer q.close()
	now := time.Now()
	for _, p := range []struct {
		tenant string
		seed   int64
	}{
		{"rr-a", 1}, {"rr-a", 2}, {"rr-a", 3},
		{"rr-b", 4},
		{"rr-c", 5}, {"rr-c", 6},
	} {
		if !q.push(p.tenant, &job{req: ReadRequest{Seed: p.seed}, enqueued: now}) {
			t.Fatal("open queue refused a push")
		}
	}
	// rr-b drains on its first turn, rr-c on its second, rr-a last.
	want := []struct {
		seed int64
		ring int // ring length after the pop
	}{{1, 3}, {4, 2}, {5, 2}, {2, 2}, {6, 1}, {3, 0}}
	for i, w := range want {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue reported closed", i)
		}
		if j.req.Seed != w.seed {
			t.Fatalf("pop %d served seed %d, want %d", i, j.req.Seed, w.seed)
		}
		if len(q.ring) != w.ring {
			t.Fatalf("after pop %d the ring holds %d tenants, want %d", i, len(q.ring), w.ring)
		}
		for _, rt := range q.ring {
			if rt.depth() == 0 {
				t.Fatalf("after pop %d drained tenant %s is still in the ring", i, rt.name)
			}
		}
	}
	if b := q.tenants["rr-b"]; b.inRing {
		t.Fatal("drained rr-b still marked in the ring")
	}
	forgetTenants(q)
}

// forgetTenants retires the per-tenant labelsets of every tenant left in
// q's table, so tests sharing the package's vectors start from a clean cap.
func forgetTenants(q *fairQueue) {
	for name := range q.tenants {
		forgetTenant(name)
	}
}

// TestFairnessTenantTableEvictsIdle fills the tenant table past
// tenantCapacity: the least recently seen idle tenant goes, its queue-depth
// and throttled labelsets with it, and a tenant with queued work is never
// evicted.
func TestFairnessTenantTableEvictsIdle(t *testing.T) {
	q := newFairQueue(0, 0)
	defer q.close()
	defer forgetTenants(q)
	now := time.Now()
	name := func(i int) string { return fmt.Sprintf("evict-%03d", i) }
	see := func(tenant string) {
		q.mu.Lock()
		q.tenantLocked(tenant, now)
		q.mu.Unlock()
	}

	// The busy tenant is seen first, so it sits at the cold end.
	if !q.push("evict-busy", &job{enqueued: now}) {
		t.Fatal("open queue refused a push")
	}
	for i := 0; i < tenantCapacity-1; i++ {
		see(name(i))
	}
	before := mTenantEvictions.Value()
	if len(q.tenants) != tenantCapacity || mTenantEvictions.Value() != before {
		t.Fatalf("table at capacity holds %d tenants, want %d and no eviction", len(q.tenants), tenantCapacity)
	}

	if !hasThrottledLabelSet(name(0)) {
		t.Fatalf("resident tenant %s has no throttled labelset", name(0))
	}

	// One more tenant: the busy one is skipped, evict-000 goes.
	see("evict-new-1")
	checkEvicted(t, q, name(0))
	if got := mTenantEvictions.Value() - before; got != 1 {
		t.Fatalf("tenant evictions rose by %d, want 1", got)
	}

	// Recency, not creation order: evict-001 is seen again, so evict-002
	// is now the least recently seen idle tenant.
	see(name(1))
	see("evict-new-2")
	checkEvicted(t, q, name(2))
	if _, ok := q.tenants[name(1)]; !ok {
		t.Fatal("recently seen evict-001 was evicted")
	}
	if got := mTenantEvictions.Value() - before; got != 2 {
		t.Fatalf("tenant evictions rose by %d, want 2", got)
	}
	if _, ok := q.tenants["evict-busy"]; !ok {
		t.Fatal("a tenant with queued work was evicted")
	}
}

// TestFairnessThrottledTenantsKeepLabelSets throttles more fresh tenants
// than obs.MaxLabelSets: each one's refusal is counted under its own name,
// and none lands in a vector's overflow child.
func TestFairnessThrottledTenantsKeepLabelSets(t *testing.T) {
	q := newFairQueue(1, 1) // one token each; the clock stands still, so none refills
	defer q.close()
	defer forgetTenants(q)
	dropped := obs.Default.Counter(obs.DroppedLabelSetsMetric, "")
	before := dropped.Value()
	now := time.Now()
	const tenants = 80
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("throttle-%03d", i)
		if ok, _ := q.throttle(name, now); !ok {
			t.Fatalf("%s refused its first read", name)
		}
		if ok, _ := q.throttle(name, now); ok {
			t.Fatalf("%s admitted past its burst", name)
		}
	}
	if got := dropped.Value() - before; got != 0 {
		t.Errorf("%s rose by %d over %d throttled tenants, want 0", obs.DroppedLabelSetsMetric, got, tenants)
	}
	counted := 0
	for _, c := range obs.Default.Snapshot().Counters {
		if c.Name == "ros_rosd_tenant_throttled_total" && strings.HasPrefix(c.Labels["tenant"], "throttle-") {
			if c.Value != 1 {
				t.Errorf("tenant %s throttled count = %d, want 1", c.Labels["tenant"], c.Value)
			}
			counted++
		}
	}
	if counted != tenants {
		t.Errorf("%d tenants have a throttled labelset, want %d", counted, tenants)
	}
}

// hasThrottledLabelSet reports whether the tenant's throttled counter is
// resident in the registry.
func hasThrottledLabelSet(tenant string) bool {
	for _, c := range obs.Default.Snapshot().Counters {
		if c.Name == "ros_rosd_tenant_throttled_total" && c.Labels["tenant"] == tenant {
			return true
		}
	}
	return false
}

// checkEvicted asserts the tenant left the table at capacity and its
// queue-depth and throttled labelsets left the registry.
func checkEvicted(t *testing.T, q *fairQueue, tenant string) {
	t.Helper()
	if len(q.tenants) != tenantCapacity {
		t.Fatalf("table holds %d tenants, want %d", len(q.tenants), tenantCapacity)
	}
	if _, ok := q.tenants[tenant]; ok {
		t.Fatalf("least recently seen idle tenant %s was not evicted", tenant)
	}
	for _, g := range obs.Default.Snapshot().Gauges {
		if g.Name == "ros_rosd_tenant_queue_depth" && g.Labels["tenant"] == tenant {
			t.Fatalf("evicted tenant %s kept its queue-depth labelset", tenant)
		}
	}
	if hasThrottledLabelSet(tenant) {
		t.Fatalf("evicted tenant %s kept its throttled labelset", tenant)
	}
}
