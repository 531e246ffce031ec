// Package seq generates the deterministic sequences the modem is built
// on: Zadoff-Chu (CAZAC) sequences for the OFDM preamble and channel
// estimation, and the fixed pseudo-noise sign pattern of the
// preamble's segments.
package seq

import (
	"fmt"
	"math"
)

// ZadoffChu returns the length-n Zadoff-Chu sequence with root u:
//
//	x[k] = exp(-i*pi*u*k*(k+1)/n)        for odd n
//	x[k] = exp(-i*pi*u*k^2/n)            for even n
//
// Zadoff-Chu sequences are CAZAC (constant amplitude, zero
// autocorrelation): every element has unit magnitude and the periodic
// autocorrelation is zero at all non-zero lags when gcd(u, n) == 1.
// The paper fills the preamble's OFDM bins with a CAZAC sequence for
// its unit peak-to-average power ratio and sharp correlation.
//
// ZadoffChu panics if n < 1, u < 1, or gcd(u, n) != 1.
func ZadoffChu(u, n int) []complex128 {
	if n < 1 || u < 1 || u >= n {
		panic(fmt.Sprintf("seq: invalid Zadoff-Chu parameters u=%d n=%d", u, n))
	}
	if gcd(u, n) != 1 {
		panic(fmt.Sprintf("seq: Zadoff-Chu root %d not coprime with length %d", u, n))
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var num int64
		if n%2 == 1 {
			num = int64(k) * int64(k+1)
		} else {
			num = int64(k) * int64(k)
		}
		// Reduce the phase index modulo 2n to keep float precision.
		num = (num * int64(u)) % int64(2*n)
		phase := -math.Pi * float64(num) / float64(n)
		s, c := math.Sincos(phase)
		out[k] = complex(c, s)
	}
	return out
}

// PeriodicAutocorrelation returns |R(lag)| / n of the sequence at the
// given circular lag — a test/diagnostic helper for the CAZAC property.
func PeriodicAutocorrelation(x []complex128, lag int) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	lag = ((lag % n) + n) % n
	var acc complex128
	for k := 0; k < n; k++ {
		acc += x[k] * conj(x[(k+lag)%n])
	}
	return cabs(acc) / float64(n)
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

func cabs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
