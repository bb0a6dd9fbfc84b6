package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec2Ops(t *testing.T) {
	a := Vec2{1, 2}
	b := Vec2{3, -1}
	if got := a.Add(b); got != (Vec2{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec2{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Vec2{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %g", got)
	}
	if got := a.Dist(b); !almost(got, math.Sqrt(13), 1e-12) {
		t.Errorf("Dist = %g", got)
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-1, 0, 2}
	if got := a.Add(b); got != (Vec3{0, 2, 5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{2, 2, 1}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 5 {
		t.Errorf("Dot = %g", got)
	}
	if got := (Vec3{2, 3, 6}).Norm(); got != 7 {
		t.Errorf("Norm = %g", got)
	}
	if got := a.XY(); got != (Vec2{1, 2}) {
		t.Errorf("XY = %v", got)
	}
	if u := a.Unit(); !almost(u.Norm(), 1, 1e-12) {
		t.Errorf("unit norm = %g", u.Norm())
	}
	if z := (Vec3{}).Unit(); z != (Vec3{}) {
		t.Errorf("zero unit = %v", z)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.Abs(ax) > 1e100 || math.Abs(ay) > 1e100 || math.Abs(bx) > 1e100 || math.Abs(by) > 1e100 {
			return true
		}
		a := Vec2{ax, ay}
		b := Vec2{bx, by}
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleConversions(t *testing.T) {
	if !almost(Deg(math.Pi), 180, 1e-12) {
		t.Errorf("Deg(pi) = %g", Deg(math.Pi))
	}
	if !almost(Rad(90), math.Pi/2, 1e-12) {
		t.Errorf("Rad(90) = %g", Rad(90))
	}
	if !almost(Rad(Deg(1.234)), 1.234, 1e-12) {
		t.Error("Rad/Deg round trip failed")
	}
}

func TestMPH(t *testing.T) {
	if !almost(MPH(30), 13.4112, 1e-9) {
		t.Errorf("MPH(30) = %g", MPH(30))
	}
}
