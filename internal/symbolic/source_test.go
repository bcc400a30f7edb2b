package symbolic

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"warp/internal/workloads"
)

// symCase pairs each ${...} workload with its concrete generator and a
// sweep of bound vectors.
type symCase struct {
	name   string
	src    string
	sweep  []map[string]int64
	concAt func(b map[string]int64) string
}

func symCases() []symCase {
	matmulSweep := []map[string]int64{}
	for n := int64(8); n <= 44; n += 6 {
		matmulSweep = append(matmulSweep, map[string]int64{"n": n})
	}
	convSweep := []map[string]int64{}
	for n := int64(32); n <= 128; n += 24 {
		convSweep = append(convSweep, map[string]int64{"k": 5, "n": n})
	}
	polySweep := []map[string]int64{}
	for np := int64(40); np <= 160; np += 40 {
		polySweep = append(polySweep, map[string]int64{"ncoef": 8, "npoints": np})
	}
	return []symCase{
		{
			name: "matmul", src: workloads.MatmulSym(), sweep: matmulSweep,
			concAt: func(b map[string]int64) string { return workloads.Matmul(int(b["n"])) },
		},
		{
			name: "conv1d", src: workloads.Conv1DSym(), sweep: convSweep,
			concAt: func(b map[string]int64) string { return workloads.Conv1D(int(b["k"]), int(b["n"])) },
		},
		{
			name: "polynomial", src: workloads.PolynomialSym(), sweep: polySweep,
			concAt: func(b map[string]int64) string {
				return workloads.Polynomial(int(b["ncoef"]), int(b["npoints"]))
			},
		},
	}
}

// TestSymbolicSourceMatchesGenerators pins the substitution contract:
// the symbolic workload sources reproduce their concrete generators
// byte for byte, so a bounds request and a generator-driven tool
// compile the same program text.
func TestSymbolicSourceMatchesGenerators(t *testing.T) {
	for _, tc := range symCases() {
		src, err := ParseSource(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, bounds := range tc.sweep {
			conc, err := src.Concrete(bounds)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, bounds, err)
			}
			if want := tc.concAt(bounds); conc != want {
				t.Fatalf("%s %v: substituted source differs from generator output", tc.name, bounds)
			}
		}
	}
}

// TestBoundsValidation: missing and unknown parameters fail loudly, and
// so does a placeholder whose value is not the integer it denotes —
// int64 overflow and inexact division used to wrap and truncate into a
// different program, silently.
func TestBoundsValidation(t *testing.T) {
	src, err := ParseSource(workloads.MatmulSym())
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Params; len(got) != 1 || got[0] != "n" {
		t.Fatalf("Params = %v, want [n]", got)
	}
	if _, err := src.Concrete(nil); err == nil || !strings.Contains(err.Error(), "missing bound") {
		t.Errorf("missing bound: err = %v", err)
	}
	if _, err := src.Concrete(map[string]int64{"n": 8, "m": 3}); err == nil || !strings.Contains(err.Error(), "not a template parameter") {
		t.Errorf("unknown bound: err = %v", err)
	}
	if _, err := ParseSource("module m (a in)\n"); err == nil {
		t.Error("ParseSource accepted source with no placeholders")
	}

	const big, min = int64(1<<33 + 1), int64(math.MinInt64)
	for _, c := range []struct {
		expr string
		n    int64
		want string // the substituted text, or the error
	}{
		{"n*n", big, "overflows int64"},
		{"n/2", big, "not an integer"},
		{"n+n", math.MaxInt64, "overflows int64"},
		{"0-n-n", math.MaxInt64, "overflows int64"},
		{"n-1", min, "overflows int64"},
		{"-n", min, "overflows int64"},
		{"n/(0-1)", min, "overflows int64"},
		{"n*(0-1)", min, "overflows int64"},
		{"(0-1)*n", min, "overflows int64"},
		{"0*n", min, "0"},
		{"n/(n-n)", 3, "division by zero"},
		{"2147483648*(n-4294967297)", 1, "-9223372036854775808"}, // the most negative product fits
		{"n*n", 3037000499, "9223372030926249001"},
		{"(n-1)/2", big, "4294967296"},
		{"-n/3", 9, "-3"},
		{"n+1", min, "-9223372036854775807"},
	} {
		src, err := ParseSource("${" + c.expr + "}")
		if err != nil {
			t.Fatalf("${%s}: %v", c.expr, err)
		}
		got, err := src.Concrete(map[string]int64{"n": c.n})
		if err != nil {
			got = err.Error()
		}
		if err == nil && got != c.want || err != nil && !strings.Contains(got, c.want) {
			t.Errorf("${%s} at n=%d = %q, want %q", c.expr, c.n, got, c.want)
		}
	}
}

// TestPlaceholderTermBound: a placeholder is refused past maxExprTerms
// terms — deep or long, 3 MiB of "(" that used to overflow the parser's
// stack included — with an error that names where it is and does not
// echo it, and accepted at the bound.
func TestPlaceholderTermBound(t *testing.T) {
	for _, expr := range []string{
		strings.Repeat("(", maxExprTerms) + "n" + strings.Repeat(")", maxExprTerms),
		strings.Repeat("-", maxExprTerms) + "n",
		strings.Repeat("n+", maxExprTerms) + "n",
		strings.Repeat("(", 3<<20),
	} {
		_, err := ParseSource("for i := 0 to ${" + expr + "} do")
		if err == nil || !strings.Contains(err.Error(), "at offset 14") || !strings.Contains(err.Error(), "more than") || len(err.Error()) > 200 {
			t.Errorf("${%.20s…}: err = %.300v, want a short term-bound error at offset 14", expr, err)
		}
	}
	at := strings.Repeat("(", maxExprTerms/2) + strings.Repeat("n+", maxExprTerms/2-1) + "n" + strings.Repeat(")", maxExprTerms/2)
	if src, err := ParseSource("${" + at + "}"); err != nil {
		t.Errorf("placeholder of exactly %d terms rejected: %v", maxExprTerms, err)
	} else if got, err := src.Concrete(map[string]int64{"n": 2}); err != nil || got != fmt.Sprint(maxExprTerms) {
		t.Errorf("placeholder of %d terms = %q, %v; want %d", maxExprTerms, got, err, maxExprTerms)
	}
}

// FuzzSymbolicInstantiation instantiates a random ${...} workload at a
// random bound vector — degenerate and negative sizes included, which
// the fixed sweeps above leave out — and requires the substituted text
// to be the generator's, so that a bounds request and a generator-driven
// tool keep compiling one program.  (Until PR 18 it compared the closed-
// form instantiation engine with a concrete compile; the name, and the
// seed corpus that runs as a regular test, are kept.)
func FuzzSymbolicInstantiation(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	cases := symCases()
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		tc := cases[rng.Intn(len(cases))]
		src, err := ParseSource(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		bounds := map[string]int64{}
		for _, p := range src.Params {
			bounds[p] = int64(rng.Intn(200) - 20)
		}
		got, err := src.Concrete(bounds)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.name, bounds, err)
		}
		if want := tc.concAt(bounds); got != want {
			t.Fatalf("%s %v: substituted source differs from generator output", tc.name, bounds)
		}
	})
}
