package seq

import (
	"math"
	"testing"
)

func TestZadoffChuConstantAmplitude(t *testing.T) {
	for _, c := range []struct{ u, n int }{{1, 60}, {7, 60}, {1, 63}, {5, 64}, {7, 120}} {
		z := ZadoffChu(c.u, c.n)
		if len(z) != c.n {
			t.Fatalf("u=%d n=%d: length %d", c.u, c.n, len(z))
		}
		for k, v := range z {
			if math.Abs(cabs(v)-1) > 1e-12 {
				t.Fatalf("u=%d n=%d: |z[%d]| = %g, want 1", c.u, c.n, k, cabs(v))
			}
		}
	}
}

func TestZadoffChuZeroAutocorrelation(t *testing.T) {
	// CAZAC property: periodic autocorrelation vanishes at all
	// non-zero lags when gcd(u, n) = 1.
	for _, c := range []struct{ u, n int }{{1, 63}, {5, 63}, {7, 60}, {11, 60}} {
		z := ZadoffChu(c.u, c.n)
		if r := PeriodicAutocorrelation(z, 0); math.Abs(r-1) > 1e-9 {
			t.Fatalf("u=%d n=%d: R(0) = %g, want 1", c.u, c.n, r)
		}
		for lag := 1; lag < c.n; lag++ {
			if r := PeriodicAutocorrelation(z, lag); r > 1e-9 {
				t.Fatalf("u=%d n=%d: |R(%d)| = %g, want 0", c.u, c.n, lag, r)
			}
		}
	}
}

func TestZadoffChuDistinctRoots(t *testing.T) {
	a := ZadoffChu(1, 63)
	b := ZadoffChu(2, 63)
	same := true
	for i := range a {
		if cabs(a[i]-b[i]) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different roots produced identical sequences")
	}
}

func TestZadoffChuValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("u=0", func() { ZadoffChu(0, 10) })
	mustPanic("n=0", func() { ZadoffChu(1, 0) })
	mustPanic("not coprime", func() { ZadoffChu(2, 10) })
	mustPanic("u >= n", func() { ZadoffChu(10, 10) })
}

func TestPreamblePNPattern(t *testing.T) {
	want := [8]int{-1, 1, 1, 1, 1, 1, -1, 1}
	if PreamblePN != want {
		t.Fatalf("PreamblePN = %v, want %v", PreamblePN, want)
	}
}
