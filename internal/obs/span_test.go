package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	root := StartSpan("read")
	det := root.StartChild("detect")
	synth := det.StartChild("synthesize")
	synth.Add(3 * time.Millisecond)
	synth.Add(2 * time.Millisecond)
	clusterSp := det.StartChild("cluster")
	clusterSp.End()
	det.End()
	root.End()

	if root.Child("detect") != det {
		t.Fatal("root does not find its detect child")
	}
	if det.Child("synthesize") != synth {
		t.Fatal("detect does not find its synthesize child")
	}
	if root.Child("synthesize") != nil {
		t.Error("Child must not recurse into grandchildren")
	}
	if got := len(det.children); got != 2 {
		t.Errorf("detect has %d children, want 2", got)
	}
	if got := time.Duration(synth.selfNS.Load()); got != 5*time.Millisecond {
		t.Errorf("synthesize self time = %v, want 5ms", got)
	}
	// Duration prefers accumulated self time, falls back to wall time.
	if got := synth.Duration(); got != 5*time.Millisecond {
		t.Errorf("synthesize Duration = %v, want 5ms", got)
	}
	if clusterSp.Duration() != clusterSp.Wall() {
		t.Error("cluster Duration should be its wall time")
	}
	if det.Wall() <= 0 || root.Wall() < det.Wall() {
		t.Errorf("wall times inverted: root %v, detect %v", root.Wall(), det.Wall())
	}
	if got := root.ChildDuration("missing"); got != 0 {
		t.Errorf("ChildDuration of missing child = %v, want 0", got)
	}
}

func TestSpanAdopt(t *testing.T) {
	root := StartSpan("read")
	orphan := StartSpan("detect")
	orphan.End()
	root.Adopt(orphan)
	root.Adopt(nil) // must be a no-op
	if root.Child("detect") != orphan {
		t.Fatal("adopted span not found")
	}
	if got := len(root.children); got != 1 {
		t.Fatalf("root has %d children, want 1", got)
	}
}

func TestSpanAttrs(t *testing.T) {
	s := StartSpan("x")
	s.SetAttr("frames", 560)
	s.SetAttr("fft_calls", int64(2240))
	s.SetAttr("frames", 561) // overwrite
	if got := s.IntAttr("frames"); got != 561 {
		t.Errorf("frames = %d, want 561", got)
	}
	if got := s.IntAttr("fft_calls"); got != 2240 {
		t.Errorf("fft_calls = %d, want 2240", got)
	}
	if got := s.IntAttr("missing"); got != 0 {
		t.Errorf("missing attr = %d, want 0", got)
	}
	if s.Attr("missing") != nil {
		t.Error("missing Attr should be nil")
	}
}

func TestSpanReleaseResets(t *testing.T) {
	s := StartSpan("a")
	s.StartChild("b")
	s.SetAttr("k", 1)
	s.Add(time.Second)
	s.End()
	s.Release()
	// Whatever the pool hands out next must look freshly started.
	n := StartSpan("fresh")
	if len(n.children) != 0 || n.Attr("k") != nil || n.selfNS.Load() != 0 || n.Wall() != 0 {
		t.Errorf("pooled span not reset: %+v", n.View())
	}
	n.Release()
}

func TestSpanConcurrentAdd(t *testing.T) {
	root := StartSpan("read")
	stage := root.StartChild("synthesize")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				stage.Add(time.Microsecond)
				root.SetAttr("frames", i)
				_ = root.Child("synthesize")
			}
		}()
	}
	wg.Wait()
	if got, want := time.Duration(stage.selfNS.Load()), workers*perWorker*time.Microsecond; got != want {
		t.Errorf("accumulated %v, want %v", got, want)
	}
}

func TestSpanView(t *testing.T) {
	root := StartSpan("read")
	root.SetAttr("detected", true)
	stage := root.StartChild("synthesize")
	stage.Add(2 * time.Millisecond)
	root.End()
	v := root.View()
	if v.Name != "read" || v.Attrs["detected"] != true {
		t.Errorf("bad root view: %+v", v)
	}
	if len(v.Children) != 1 || v.Children[0].Name != "synthesize" {
		t.Fatalf("bad children: %+v", v.Children)
	}
	if got := v.Children[0].SelfMs; got != 2 {
		t.Errorf("synthesize self_ms = %v, want 2", got)
	}
}
