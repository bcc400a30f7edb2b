package main

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"warp/internal/workloads"
)

// newRand returns the generator of one workload's input stream.  Each
// (seed, stream) pair has its own sequence, so adding draws to one
// workload never shifts another's inputs.
func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// uniform fills n values in [lo, hi).
func uniform(r *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + r.Float64()*(hi-lo)
	}
	return v
}

// quarters fills n quarter-integers in [-2, 2]: the exact-arithmetic
// alphabet of workloads.LargeMatmulData, under which no product or
// partial sum rounds, so a tiled run that reassociates a reduction is
// bit-identical to the sequential reference.
func quarters(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(r.Intn(17)-8) / 4
	}
	return v
}

// bounds is one template bound vector.
type bounds map[string]int64

// String renders the vector canonically ("k=9,n=512", names sorted): it
// names request kinds and keys per-size records.
func (b bounds) String() string {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = name + "=" + strconv.FormatInt(b[name], 10)
	}
	return strings.Join(names, ",")
}

// family is one size-parameterised program: its symbolic and concrete
// sources, seeded inputs and Go reference at any size, its hot sizes
// (the sizes real traffic repeats) and the range its remaining traffic
// is spread over.
type family struct {
	name string
	// sym is the ${...} template source; concrete(b) is the source the
	// concrete generator emits for the same sizes (byte for byte what
	// substituting b into sym gives, pinned by internal/workloads' tests).
	sym      string
	concrete func(b bounds) string
	inputs   func(r *rand.Rand, b bounds) map[string][]float64
	ref      func(b bounds, in map[string][]float64) expectation
	hot      []bounds
	// spread returns the i-th of n bound vectors spread evenly over the
	// family's size range, jittered inside its stratum by r.  Stratifying
	// keeps the multiset of sizes — and with it the work of a sweep —
	// nearly the same for every seed, where independent uniform draws
	// would make sweeps of different seeds incomparable.
	spread func(r *rand.Rand, i, n int) bounds
}

// stratum draws from the i-th of n equal strata of [lo, hi].
func stratum(r *rand.Rand, i, n int, lo, hi int64) int64 {
	width := hi - lo + 1
	a := lo + width*int64(i)/int64(n)
	b := lo + width*int64(i+1)/int64(n)
	if b <= a {
		return a
	}
	return a + r.Int63n(b-a)
}

// families are the three symbolic example programs with the traffic
// ranges of ISSUE 11: matmul n in 4..40, polynomial ncoef 4..10 by
// npoints 50..799, conv1d k 3..9 by n 64..2063.
var families = []family{
	{
		name:     "matmul",
		sym:      workloads.MatmulSym(),
		concrete: func(b bounds) string { return workloads.Matmul(int(b["n"])) },
		inputs: func(r *rand.Rand, b bounds) map[string][]float64 {
			n := int(b["n"])
			return map[string][]float64{"a": uniform(r, n*n, -1, 1), "bmat": uniform(r, n*n, -1, 1)}
		},
		ref: func(b bounds, in map[string][]float64) expectation {
			return expectation{"c", workloads.MatmulRef(in["a"], in["bmat"], int(b["n"])), relTol}
		},
		hot: []bounds{{"n": 8}, {"n": 16}, {"n": 24}, {"n": 32}},
		spread: func(r *rand.Rand, i, n int) bounds {
			return bounds{"n": stratum(r, i, n, 4, 40)}
		},
	},
	{
		name:     "polynomial",
		sym:      workloads.PolynomialSym(),
		concrete: func(b bounds) string { return workloads.Polynomial(int(b["ncoef"]), int(b["npoints"])) },
		inputs: func(r *rand.Rand, b bounds) map[string][]float64 {
			return map[string][]float64{"z": uniform(r, int(b["npoints"]), -1, 1), "c": uniform(r, int(b["ncoef"]), -1, 1)}
		},
		ref: func(b bounds, in map[string][]float64) expectation {
			return expectation{"results", workloads.PolynomialRef(in["z"], in["c"]), relTol}
		},
		hot: []bounds{{"ncoef": 10, "npoints": 100}, {"ncoef": 10, "npoints": 200},
			{"ncoef": 10, "npoints": 400}, {"ncoef": 10, "npoints": 700}},
		spread: func(r *rand.Rand, i, n int) bounds {
			return bounds{"ncoef": 4 + int64(i%7), "npoints": stratum(r, i, n, 50, 799)}
		},
	},
	{
		name:     "conv1d",
		sym:      workloads.Conv1DSym(),
		concrete: func(b bounds) string { return workloads.Conv1D(int(b["k"]), int(b["n"])) },
		inputs: func(r *rand.Rand, b bounds) map[string][]float64 {
			return map[string][]float64{"x": uniform(r, int(b["n"]), -1, 1), "w": uniform(r, int(b["k"]), -1, 1)}
		},
		ref: func(b bounds, in map[string][]float64) expectation {
			return expectation{"results", workloads.Conv1DRef(in["x"], in["w"]), relTol}
		},
		hot: []bounds{{"k": 9, "n": 256}, {"k": 9, "n": 512},
			{"k": 9, "n": 1024}, {"k": 9, "n": 2048}},
		spread: func(r *rand.Rand, i, n int) bounds {
			return bounds{"k": 3 + int64(i%7), "n": stratum(r, i, n, 64, 2063)}
		},
	},
}

// sizeTraffic returns n bound vectors of one family: the hot sizes in
// rotation alternating with vectors spread over the range.  The seed
// moves each spread vector inside its stratum; the arrival order is the
// same for every seed (strata visited at a stride coprime to their
// count), because which size a template sees first decides which
// residue classes it builds, and passes of different seeds should build
// comparable ones.
func sizeTraffic(r *rand.Rand, f family, n int) []bounds {
	half := n / 2
	spread := make([]bounds, n-half)
	for i := range spread {
		spread[i] = f.spread(r, i, len(spread))
	}
	stride := 1
	for _, s := range []int{37, 31, 29, 23, 19, 17, 13, 11, 7, 5, 3} {
		if s < len(spread) && len(spread)%s != 0 {
			stride = s
			break
		}
	}
	out := make([]bounds, 0, n)
	for i := 0; len(out) < n; i++ {
		if i < half {
			out = append(out, f.hot[i%len(f.hot)])
		}
		if i < len(spread) {
			out = append(out, spread[i*stride%len(spread)])
		}
	}
	return out
}
