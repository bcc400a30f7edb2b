package paper

import "fmt"

// Rat is an exact rational number with int64 numerator and denominator.
// The minimum-skew bound computation manipulates coefficients like 5/3
// and 52/3 (Table 6-4 of the paper), so exact arithmetic is required.
type Rat struct {
	num int64
	den int64 // always > 0
}

// R returns the rational num/den.
func R(num, den int64) Rat {
	if den == 0 {
		panic("skew: rational with zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd(abs64(num), den)
	if g > 1 {
		num /= g
		den /= g
	}
	return Rat{num, den}
}

// RI returns the rational n/1.
func RI(n int64) Rat { return Rat{n, 1} }

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// Num returns the numerator of the normalized rational.
func (r Rat) Num() int64 { return r.num }

// Den returns the (positive) denominator of the normalized rational.
func (r Rat) Den() int64 { return r.den }

// Add returns r+s.
func (r Rat) Add(s Rat) Rat { return R(r.num*s.den+s.num*r.den, r.den*s.den) }

// Sub returns r−s.
func (r Rat) Sub(s Rat) Rat { return R(r.num*s.den-s.num*r.den, r.den*s.den) }

// Mul returns r·s.
func (r Rat) Mul(s Rat) Rat { return R(r.num*s.num, r.den*s.den) }

// MulI returns r·n.
func (r Rat) MulI(n int64) Rat { return R(r.num*n, r.den) }

// Neg returns −r.
func (r Rat) Neg() Rat { return Rat{-r.num, r.den} }

// Cmp returns −1, 0, or 1 as r is less than, equal to, or greater
// than s.
func (r Rat) Cmp(s Rat) int {
	d := r.num*s.den - s.num*r.den
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	}
	return 0
}

// Sign returns the sign of r.
func (r Rat) Sign() int { return r.Cmp(Rat{0, 1}) }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.den == 1 }

// Ceil returns the smallest integer ≥ r.
func (r Rat) Ceil() int64 {
	q := r.num / r.den
	if r.num%r.den > 0 {
		q++
	}
	return q
}

// Floor returns the largest integer ≤ r.
func (r Rat) Floor() int64 {
	q := r.num / r.den
	if r.num%r.den < 0 {
		q--
	}
	return q
}

// Float returns the nearest float64.
func (r Rat) Float() float64 { return float64(r.num) / float64(r.den) }

func (r Rat) String() string {
	if r.den == 1 {
		return fmt.Sprintf("%d", r.num)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}
