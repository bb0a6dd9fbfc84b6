package scene

import (
	"math/cmplx"
	"testing"

	"ros/internal/coding"
	"ros/internal/geom"
	"ros/internal/obs"
	"ros/internal/stack"
)

// literalTwin copies a NewTag-built tag into a literal (fp 0) twin that
// never memoizes — the bit-identity reference for the memo.
func literalTwin(tag *Tag) *Tag {
	return &Tag{Layout: tag.Layout, Stack: tag.Stack, Position: tag.Position, Stats: tag.Stats}
}

// testCache returns an empty response cache reporting into an unregistered
// gauge.
func testCache() *ResponseCache { return NewResponseCache(new(obs.Gauge)) }

// TestTagResponseMemoMatchesDirect pins the memo's core contract: memoized
// evaluation is byte-identical to direct evaluation, cold and warm.
func TestTagResponseMemoMatchesDirect(t *testing.T) {
	rc := testCache()
	tag := testTag(t, "1011", 8)
	direct := literalTwin(tag)
	if tag.fp == 0 {
		t.Fatal("NewTag left fp zero — memo never engages")
	}
	if direct.fp != 0 {
		t.Fatal("literal tag carries a fingerprint")
	}
	probes := []geom.Vec3{
		{X: 0, Y: 10, Z: 0.5},
		{X: -3, Y: 8, Z: 0.5},
		{X: 2.5, Y: 20, Z: 1},
		{X: 0.001, Y: 10, Z: 0.5},
	}
	for _, p := range probes {
		want := direct.Response(p, fc)
		cold := tag.responseCached(rc, p, fc) // computes and stores
		warm := tag.responseCached(rc, p, fc) // served from the memo
		if cold != want || warm != want || direct.responseCached(rc, p, fc) != want {
			t.Errorf("Response(%v): cold %v warm %v direct %v", p, cold, warm, want)
		}
		wantP := direct.stackPower(p, fc)
		coldP := tag.stackPowerCached(rc, p, fc)
		warmP := tag.stackPowerCached(rc, p, fc)
		if coldP != wantP || warmP != wantP {
			t.Errorf("stackPower(%v): cold %v warm %v direct %v", p, coldP, warmP, wantP)
		}
	}
	if n := rc.Len(); n != 2*len(probes) {
		t.Errorf("memo holds %d entries after %d probes, want %d", n, len(probes), 2*len(probes))
	}
}

// TestResponseCacheClearRebuildIdentical checks that dropping the memo
// mid-stream changes nothing but timing.
func TestResponseCacheClearRebuildIdentical(t *testing.T) {
	rc := testCache()
	tag := testTag(t, "1101", 8)
	p := geom.Vec3{X: 1.5, Y: 12, Z: 0.7}
	before := tag.responseCached(rc, p, fc)
	beforeP := tag.stackPowerCached(rc, p, fc)
	rc.Clear()
	if n := rc.Len(); n != 0 {
		t.Fatalf("Clear left %d entries", n)
	}
	if got := tag.responseCached(rc, p, fc); got != before {
		t.Errorf("Response after Clear: %v != %v", got, before)
	}
	if got := tag.stackPowerCached(rc, p, fc); got != beforeP {
		t.Errorf("stackPower after Clear: %v != %v", got, beforeP)
	}
}

// TestTagFingerprintSeparatesTags pins the fingerprint's injectivity over
// the inputs production varies: bit pattern, stack size, and world position
// (driveby places the same layout/stack at several offsets — a positional
// collision would serve one tag's field for another's).
func TestTagFingerprintSeparatesTags(t *testing.T) {
	rc := testCache()
	base := testTag(t, "1011", 8)
	fps := map[uint64]string{base.fp: "base"}
	add := func(name string, tag *Tag, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := fps[tag.fp]; dup {
			t.Errorf("%s collides with %s (fp %#x)", name, prev, tag.fp)
		}
		fps[tag.fp] = name
	}
	otherBits := testTag(t, "1101", 8)
	add("bits 1101", otherBits, nil)
	otherStack := testTag(t, "1011", 16)
	add("16 modules", otherStack, nil)
	shifted, err := NewTag(base.Layout, base.Stack, geom.Vec3{X: 0.35})
	add("shifted x", shifted, err)
	nudged, err := NewTag(base.Layout, base.Stack, geom.Vec3{Y: 0.0001})
	add("nudged y", nudged, err)

	// And the memo keeps them apart end to end: warm both co-located-layout
	// tags, then check each still answers with its own field.
	p := geom.Vec3{X: 0.5, Y: 9, Z: 0.4}
	rBase := base.responseCached(rc, p, fc)
	rShift := shifted.responseCached(rc, p, fc)
	if rBase == rShift {
		t.Fatal("test premise broken: distinct positions gave identical fields")
	}
	if got := base.responseCached(rc, p, fc); got != rBase {
		t.Error("base tag's memoized field was overwritten by the shifted tag")
	}
	if got := shifted.responseCached(rc, p, fc); got != rShift {
		t.Error("shifted tag's memoized field was overwritten by the base tag")
	}
}

// TestSceneMemoCapWipes fills the memo to capacity with synthetic keys and
// checks the wipe: the map never exceeds the cap and keeps absorbing new
// entries afterwards.
func TestSceneMemoCapWipes(t *testing.T) {
	rc := testCache()
	for i := 0; i < sceneResponseCap; i++ {
		rc.store(responseKey{fp: 1, px: float64(i)}, complex128(0))
	}
	if n := rc.Len(); n != sceneResponseCap {
		t.Fatalf("filled memo holds %d entries, want %d", n, sceneResponseCap)
	}
	rc.store(responseKey{fp: 2}, complex128(0))
	if n := rc.Len(); n != 1 {
		t.Errorf("store at capacity left %d entries, want 1 (wipe then insert)", n)
	}
}

// TestResponseCacheWipesAtCapacity drives real tag responses through a
// cache whose capacity is lowered to a few entries: a store into the full
// cache wipes the map and resets the gauge, and the terms recomputed after
// the wipe are bit-identical to the ones it dropped.
func TestResponseCacheWipesAtCapacity(t *testing.T) {
	const capacity = 4
	g := new(obs.Gauge)
	rc := NewResponseCache(g)
	rc.cap = capacity
	tag := testTag(t, "1011", 8)
	probe := func(i int) geom.Vec3 { return geom.Vec3{X: 0.25 * float64(i), Y: 10, Z: 0.5} }

	first := make([]complex128, capacity+1)
	for i := 0; i < capacity; i++ {
		first[i] = tag.responseCached(rc, probe(i), fc)
	}
	if n, v := rc.Len(), g.Value(); n != capacity || v != capacity {
		t.Fatalf("filled cache: %d entries, gauge %v; want %d", n, v, capacity)
	}
	first[capacity] = tag.responseCached(rc, probe(capacity), fc)
	if n, v := rc.Len(), g.Value(); n != 1 || v != 1 {
		t.Fatalf("store at capacity left %d entries, gauge %v; want 1 (wipe then insert)", n, v)
	}

	direct := literalTwin(tag)
	for i, want := range first {
		if got := tag.responseCached(rc, probe(i), fc); got != want {
			t.Errorf("probe %d recomputed after the wipe: %v, want %v", i, got, want)
		}
		if d := direct.Response(probe(i), fc); d != want {
			t.Errorf("probe %d: memoized %v, direct %v", i, want, d)
		}
	}
	if n := rc.Len(); n > capacity {
		t.Errorf("cache holds %d entries, above its capacity %d", n, capacity)
	}
}

// TestNewTagFingerprintDeterministic: the same inputs always produce the
// same fingerprint, so memo entries survive tag reconstruction (a new
// process, or sim re-runs that rebuild the scene each read).
func TestNewTagFingerprintDeterministic(t *testing.T) {
	a := testTag(t, "1011", 8)
	b := testTag(t, "1011", 8)
	if a.fp != b.fp {
		t.Errorf("identical tags fingerprint differently: %#x vs %#x", a.fp, b.fp)
	}
}

func benchTag(b *testing.B, memo bool) *Tag {
	b.Helper()
	bits, err := coding.ParseBits("10110101")
	if err != nil {
		b.Fatal(err)
	}
	layout, err := coding.NewLayout(bits, coding.DefaultDelta())
	if err != nil {
		b.Fatal(err)
	}
	tag, err := NewTag(layout, stack.NewUniform(32), geom.Vec3{})
	if err != nil {
		b.Fatal(err)
	}
	if !memo {
		return literalTwin(tag)
	}
	return tag
}

// BenchmarkSceneResponseMemo measures the warm-memo hit path against
// BenchmarkSceneResponseDirect's full module loop — the per-frame saving a
// repeated trajectory buys.
func BenchmarkSceneResponseMemo(b *testing.B) {
	rc := testCache()
	tag := benchTag(b, true)
	p := geom.Vec3{X: 1, Y: 10, Z: 0.5}
	if tag.responseCached(rc, p, fc) == 0 {
		b.Fatal("degenerate probe")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += tag.responseCached(rc, p, fc)
	}
	if cmplx.IsNaN(acc) {
		b.Fatal("NaN accumulator")
	}
}

func BenchmarkSceneResponseDirect(b *testing.B) {
	tag := benchTag(b, false)
	p := geom.Vec3{X: 1, Y: 10, Z: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += tag.Response(p, fc)
	}
	if cmplx.IsNaN(acc) {
		b.Fatal("NaN accumulator")
	}
}
