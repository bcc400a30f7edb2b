package symbolic

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/cellgen"
	"warp/internal/driver"
	"warp/internal/mcode"
	"warp/internal/obs"
	"warp/internal/prof"
	"warp/internal/w2"
)

// Template is a symbolically compiled program: one parsed symbolic
// source plus a lazily built set of residue classes, each holding the
// closed-form model for the bound vectors that share one schedule
// structure.  A Template is safe for concurrent use; class
// construction is serialized per class, instantiation is lock-light.
type Template struct {
	Source *Source
	Opts   driver.Options

	mu      sync.Mutex
	period  int64 // 0 = not yet discovered; <0 = template never symbolic
	seed    *seedCompile
	classes map[string]*class

	// Counters (atomic): see Stats.
	instantiations int64
	fallbacks      int64
	classBuilds    int64
	probeCompiles  int64
}

// seedCompile donates the period-discovery compile to the class that
// covers its bounds, so the first request does not pay for it twice.
type seedCompile struct {
	bounds map[string]int64
	c      *driver.Compiled
}

// class is one residue class of the bound lattice, fitted over a
// subset of the parameters: bound vectors that match the pinned
// parameters exactly and sit on the period lattice (at or above the
// base) along the free parameters are interpolated; everything else
// falls back.  The free set is chosen by the build: the widest mask
// whose probe skeletons agree and whose self-checks pass.  A class
// with no free parameters is a point class — an instant replay of its
// base compile.
type class struct {
	once sync.Once
	// err marks the class non-symbolizable (its own base probe failed
	// to compile, or the walker could not extract it); requests then
	// fall back to concrete compilation, reproducing the same outcome.
	err error

	base    *driver.Compiled // probe t⃗=0, the clone source
	b0      map[string]int64
	free    []string  // fitted (interpolated) parameters, sorted
	desc    string    // human-readable class identity
	forms   [][]int64 // per-leaf mixed difference grids
	nWalk   int       // leaves consumed by the fixed-shape walker
	streams []streamDef
}

// covers reports whether bounds can be served by this fitted class:
// pinned parameters must match the base exactly, free parameters must
// be on the period lattice at or above the base.
func (cls *class) covers(bounds map[string]int64, period int64) bool {
	freeSet := make(map[string]bool, len(cls.free))
	for _, p := range cls.free {
		freeSet[p] = true
	}
	for p, v0 := range cls.b0 {
		v := bounds[p]
		if !freeSet[p] {
			if v != v0 {
				return false
			}
			continue
		}
		if d := v - v0; d < 0 || d%period != 0 {
			return false
		}
	}
	return true
}

// Stats is a snapshot of the template's lifetime counters.
type Stats struct {
	// Instantiations counts artifacts produced from closed forms.
	Instantiations int64 `json:"instantiations"`
	// Fallbacks counts requests served by a concrete compile instead
	// (off-lattice bounds, non-symbolizable class, limit violation).
	Fallbacks int64 `json:"fallbacks"`
	// ClassBuilds counts residue classes probed and fitted.
	ClassBuilds int64 `json:"class_builds"`
	// ProbeCompiles counts concrete compiles spent building classes.
	ProbeCompiles int64 `json:"probe_compiles"`
}

// Detail reports how one instantiation request was served.
type Detail struct {
	// Symbolic is true when the artifact came from the closed forms
	// (microseconds), false when it fell back to a concrete compile.
	Symbolic bool `json:"symbolic"`
	// ClassBuilt is true when this request paid for the class's probe
	// compiles (the compile-once cost).
	ClassBuilt bool `json:"class_built,omitempty"`
	// Class is the residue-class key.
	Class string `json:"class,omitempty"`
	// FallbackReason says why a non-symbolic request fell back.
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// CompileTemplate parses symbolic source into a Template.  No probe
// compiles run yet: classes are built on first instantiation.
func CompileTemplate(src string, opts driver.Options) (*Template, error) {
	s, err := ParseSource(src)
	if err != nil {
		return nil, err
	}
	return &Template{Source: s, Opts: opts, classes: map[string]*class{}}, nil
}

// Params returns the template's bound parameters, sorted.
func (t *Template) Params() []string { return t.Source.Params }

// Stats returns a snapshot of the template's counters.
func (t *Template) Stats() Stats {
	return Stats{
		Instantiations: atomic.LoadInt64(&t.instantiations),
		Fallbacks:      atomic.LoadInt64(&t.fallbacks),
		ClassBuilds:    atomic.LoadInt64(&t.classBuilds),
		ProbeCompiles:  atomic.LoadInt64(&t.probeCompiles),
	}
}

// Check instantiates bounds and independently compiles the substituted
// source concretely, failing unless the two artifacts are byte-identical
// under driver.Fingerprint.  It is the differential self-test behind
// `w2c -symbolic -check` and the CI sweep script.
func (t *Template) Check(bounds map[string]int64) error {
	inst, detail, err := t.Instantiate(bounds)
	if err != nil {
		return err
	}
	conc, err := t.Source.Concrete(bounds)
	if err != nil {
		return err
	}
	ref, err := driver.Compile(conc, t.Opts)
	if err != nil {
		return fmt.Errorf("symbolic: instantiation accepted %s but concrete compile rejects it: %w",
			boundsString(t.Source.Params, bounds), err)
	}
	if ifp, rfp := driver.Fingerprint(inst), driver.Fingerprint(ref); ifp != rfp {
		return fmt.Errorf("symbolic: artifact mismatch at %s (served %s): instantiated and concrete compiles differ",
			boundsString(t.Source.Params, bounds), serveKind(detail))
	}
	return nil
}

// serveKind renders how a Detail was served, for diagnostics.
func serveKind(d *Detail) string {
	if d != nil && d.Symbolic {
		return "symbolically from class " + d.Class
	}
	return "by concrete fallback"
}

// Instantiate produces the concrete compiled artifact for one bound
// vector — byte-identical (by driver.Fingerprint) to
// driver.Compile(t.Source.Concrete(bounds), t.Opts), in microseconds
// when the bounds hit a fitted class.  Bounds the closed forms cannot
// cover are compiled concretely, so acceptance and rejection always
// match the concrete compiler exactly.  The Detail reports how the
// request was served, and the artifact's Phases are the timeline of this
// call: "template-build" when it paid for its class, then
// "template-instantiate" or the fallback's compile phases.
func (t *Template) Instantiate(bounds map[string]int64) (*driver.Compiled, *Detail, error) {
	start := time.Now()
	conc, err := t.Source.Concrete(bounds)
	if err != nil {
		return nil, nil, err
	}
	period, seed, reason := t.ensurePeriod(conc, bounds)
	if reason != "" {
		return t.fallback(conc, start, nil, reason)
	}

	key := classKey(t.Source.Params, bounds, period)
	t.mu.Lock()
	cls := t.classes[key]
	if cls == nil {
		cls = &class{}
		t.classes[key] = cls
	}
	t.mu.Unlock()

	// phases starts with the class build when this call paid for it;
	// template-instantiate then times only what followed.
	var phases []obs.PhaseStat
	instStart := start
	cls.once.Do(func() {
		buildStart := time.Now()
		t.buildClass(cls, bounds, period, seed)
		instStart = time.Now()
		phases = []obs.PhaseStat{{
			Name: "template-build", Start: buildStart.Sub(start).Seconds(), Seconds: instStart.Sub(buildStart).Seconds(),
			Size: gridSize(len(cls.free)), Note: cls.desc,
		}}
	})
	if cls.err != nil {
		return t.fallback(conc, start, phases, cls.err.Error())
	}
	if !cls.covers(bounds, period) {
		return t.fallback(conc, start, phases,
			fmt.Sprintf("bounds %s outside fitted class %s", boundsString(t.Source.Params, bounds), cls.desc))
	}

	c, err := t.instantiateClass(cls, period, bounds, conc)
	if err != nil {
		return t.fallback(conc, start, phases, err.Error())
	}
	atomic.AddInt64(&t.instantiations, 1)
	c.Phases = append(phases, obs.PhaseStat{
		Name: "template-instantiate", Start: instStart.Sub(start).Seconds(), Seconds: time.Since(instStart).Seconds(),
		Size: len(cls.forms), Note: cls.desc,
	})
	return c, &Detail{Symbolic: true, ClassBuilt: phases != nil, Class: cls.desc}, nil
}

// ModeledCycles evaluates the template's closed-form cycle prediction
// for one bound vector: the modeled total the fast-execution backend
// and progress reporting use, without a concrete compile.
func (t *Template) ModeledCycles(bounds map[string]int64) (int64, error) {
	c, _, err := t.Instantiate(bounds)
	if err != nil {
		return 0, err
	}
	return c.ModeledCycles(), nil
}

// fallback serves a request with a concrete compile.  This is the
// soundness escape hatch: whatever the closed forms cannot express is
// handled — and accepted or rejected — exactly as a cold compile.  The
// compile's phases are shifted onto the timeline of the call that began
// at start, after whatever it already spent (pre).
func (t *Template) fallback(conc string, start time.Time, pre []obs.PhaseStat, reason string) (*driver.Compiled, *Detail, error) {
	atomic.AddInt64(&t.fallbacks, 1)
	off := time.Since(start).Seconds()
	c, err := driver.Compile(conc, t.Opts)
	if err != nil {
		return nil, nil, err
	}
	for i := range c.Phases {
		c.Phases[i].Start += off
	}
	c.Phases = append(pre, c.Phases...)
	return c, &Detail{Symbolic: false, FallbackReason: reason}, nil
}

func (t *Template) compileProbe(bounds map[string]int64) (*driver.Compiled, error) {
	atomic.AddInt64(&t.probeCompiles, 1)
	conc, err := t.Source.Concrete(bounds)
	if err != nil {
		return nil, err
	}
	return driver.Compile(conc, t.Opts)
}

// ensurePeriod discovers the template's residue period from the first
// concrete compile.  It returns a non-empty reason when the template
// can never be symbolic (too many parameters, oversized period), and
// at most once a seed compile for the discovering bounds.
func (t *Template) ensurePeriod(conc string, bounds map[string]int64) (int64, *seedCompile, string) {
	if len(t.Source.Params) > maxParams {
		return 0, nil, fmt.Sprintf("template has %d parameters (max %d)", len(t.Source.Params), maxParams)
	}
	t.mu.Lock()
	if t.period > 0 {
		p, s := t.period, t.seed
		t.seed = nil
		t.mu.Unlock()
		return p, s, ""
	}
	if t.period < 0 {
		t.mu.Unlock()
		return 0, nil, "structure period exceeds the symbolic limit"
	}
	t.mu.Unlock()

	c, err := driver.Compile(conc, t.Opts)
	if err != nil {
		// Rejection is decided concretely either way; report it
		// directly rather than through the fallback path (which would
		// compile a second time).
		return 0, nil, "discovery: " + err.Error()
	}
	atomic.AddInt64(&t.probeCompiles, 1)
	p := discoverPeriod(c)

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.period == 0 {
		if p > maxPeriod {
			t.period = -1
		} else {
			t.period = p
			t.seed = &seedCompile{bounds: copyBounds(bounds), c: c}
		}
	}
	if t.period < 0 {
		return 0, nil, "structure period exceeds the symbolic limit"
	}
	s := t.seed
	t.seed = nil
	return t.period, s, ""
}

// ensurePeriod's discovery compile can race a concurrent discovery; a
// duplicated compile is accepted (both produce identical artifacts).

// discoverPeriod computes the structure-invariance period of one
// compile: trip counts congruent modulo this period keep the same IU
// unroll remainders and the same software-pipeline epilogue shapes,
// which is exactly when the schedule skeleton can be reused.  It is a
// conjecture about the class, not a proof — the probe-grid skeleton
// comparison and the held-out self-check are what make the template
// sound.
func discoverPeriod(c *driver.Compiled) int64 {
	p := int64(1)
	var walk func(items []mcode.IUItem)
	walk = func(items []mcode.IUItem) {
		for _, it := range items {
			switch it := it.(type) {
			case *mcode.IUStraight:
				for _, in := range it.Instrs {
					if in.Sig != nil && !in.Sig.Static && in.Sig.M > 1 {
						p = lcm(p, in.Sig.M)
					}
				}
			case *mcode.IULoop:
				walk(it.Body)
			}
		}
	}
	walk(c.IU.Items)
	for _, l := range c.Sched.Loops {
		if l.Pipelined && l.II > 1 {
			p = lcm(p, int64(l.II))
		}
	}
	return p
}

func lcm(a, b int64) int64 {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

func copyBounds(b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

func classKey(params []string, bounds map[string]int64, period int64) string {
	var sb strings.Builder
	for _, p := range params {
		r := bounds[p] % period
		if r < 0 {
			r += period
		}
		fmt.Fprintf(&sb, "%s≡%d ", p, r)
	}
	return strings.TrimSpace(sb.String()) + fmt.Sprintf(" (mod %d)", period)
}

// extract runs the read-mode walker and the stream segmenter over one
// probe compile, producing its skeleton, leaf vector and stream
// structure.
func extract(c *driver.Compiled) (string, []int64, int, []streamDef, error) {
	w := &walker{read: true, seen: map[*w2.Symbol]bool{}}
	walkCompiled(c, w)
	if w.err != nil {
		return "", nil, 0, nil, w.err
	}
	nWalk := len(w.leaves)
	defs := extractStreams(c, &w.sk, &w.leaves)
	return w.sk.String(), w.leaves, nWalk, defs, nil
}

// probeData is one extracted probe compile, cached across mask
// attempts within a class build (a narrower mask's grid is a sub-grid
// of a wider one's, so its probes are usually already compiled).
type probeData struct {
	c       *driver.Compiled
	sk      string
	leaves  []int64
	nWalk   int
	streams []streamDef
}

// buildClass fits the class over the widest workable parameter mask.
// Masks are tried from all-free down to all-pinned: for each, the
// probe grid spans only the free parameters (pinned ones keep the base
// values), the skeletons must agree across the grid, and the fitted
// forms must reproduce both the base probe and a held-out probe beyond
// the grid bit for bit.  Structure that varies with a parameter — a
// pipelined schedule whose placement shifts with an address
// coefficient, a verifier statistic that saturates along an axis — is
// detected by those checks and demotes that parameter to pinned.  The
// all-pinned mask (a point class replaying the base compile) always
// fits, so cls.err is set only when the base bounds themselves fail to
// compile or extract.
func (t *Template) buildClass(cls *class, bounds map[string]int64, period int64, seed *seedCompile) {
	atomic.AddInt64(&t.classBuilds, 1)
	params := t.Source.Params
	cls.b0 = copyBounds(bounds)

	cache := map[string]*probeData{}
	if seed != nil {
		if pd, err := extractProbe(seed.c); err == nil {
			cache[boundsString(params, seed.bounds)] = pd
		}
	}
	var lastErr error
	for _, mask := range orderedMasks(len(params)) {
		var free []string
		for i, p := range params {
			if mask&(1<<uint(i)) == 0 {
				free = append(free, p)
			}
		}
		if err := t.tryMask(cls, period, free, cache); err != nil {
			lastErr = err
			continue
		}
		cls.free = free
		cls.desc = classDesc(params, free, cls.b0, period)
		return
	}
	cls.err = lastErr
}

// tryMask probes the grid over the free parameters, checks structural
// invariance, fits the forms and validates them.  On success the class
// fields (base, forms, nWalk, streams) are left filled.
func (t *Template) tryMask(cls *class, period int64, free []string, cache map[string]*probeData) error {
	params := t.Source.Params
	k := gridSize(len(free))
	values := make([][]int64, k)
	var first *probeData
	for idx := 0; idx < k; idx++ {
		pb := probeBounds(free, cls.b0, period, idx)
		pd, err := t.probe(pb, cache)
		if err != nil {
			return fmt.Errorf("probe %s failed: %w", boundsString(params, pb), err)
		}
		if idx == 0 {
			first = pd
		} else if pd.sk != first.sk {
			return fmt.Errorf("schedule structure varies across the class grid (probe %s)", boundsString(params, pb))
		} else if len(pd.leaves) != len(first.leaves) {
			return fmt.Errorf("leaf count varies across the class grid (probe %s)", boundsString(params, pb))
		}
		values[idx] = pd.leaves
	}
	cls.base, cls.nWalk, cls.streams = first.c, first.nWalk, first.streams
	cls.free = free
	cls.forms = diffGrid(values, len(free))

	// Self-check 1: re-instantiating the base probe from the forms
	// must reproduce it bit for bit (exercises clone, patch, emission).
	if err := t.checkClass(cls, period, cls.b0, cls.base); err != nil {
		return err
	}
	if len(free) == 0 {
		return nil // point class: nothing to extrapolate
	}
	// Self-check 2: a held-out probe beyond the grid along the free
	// axes.  Every form is a polynomial of per-parameter degree
	// ≤ gridSide-1 by construction; if any true leaf is not, it
	// disagrees here and the mask is rejected before a consumer can
	// observe the difference.
	held := copyBounds(cls.b0)
	for _, p := range free {
		held[p] += int64(gridSide) * period
	}
	hd, err := t.probe(held, cache)
	if err != nil {
		return fmt.Errorf("held-out probe %s failed: %w", boundsString(params, held), err)
	}
	return t.checkClass(cls, period, held, hd.c)
}

// probe compiles and extracts one grid point, memoized across mask
// attempts of the same build.
func (t *Template) probe(bounds map[string]int64, cache map[string]*probeData) (*probeData, error) {
	key := boundsString(t.Source.Params, bounds)
	if pd, ok := cache[key]; ok {
		return pd, nil
	}
	c, err := t.compileProbe(bounds)
	if err != nil {
		return nil, err
	}
	pd, err := extractProbe(c)
	if err != nil {
		return nil, err
	}
	cache[key] = pd
	return pd, nil
}

func extractProbe(c *driver.Compiled) (*probeData, error) {
	sk, leaves, nWalk, defs, err := extract(c)
	if err != nil {
		return nil, err
	}
	return &probeData{c: c, sk: sk, leaves: leaves, nWalk: nWalk, streams: defs}, nil
}

// orderedMasks enumerates the pin masks (bit i set = params[i] pinned)
// widest-first: fewer pinned parameters win, ties broken by pinning
// earlier-sorted parameters first.
func orderedMasks(p int) []uint {
	masks := make([]uint, 0, 1<<uint(p))
	for m := uint(0); m < 1<<uint(p); m++ {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool {
		ci, cj := bits.OnesCount(masks[i]), bits.OnesCount(masks[j])
		if ci != cj {
			return ci < cj
		}
		return masks[i] < masks[j]
	})
	return masks
}

// classDesc renders the class identity: pinned parameters as exact
// values, free parameters as residues.
func classDesc(params, free []string, b0 map[string]int64, period int64) string {
	freeSet := make(map[string]bool, len(free))
	for _, p := range free {
		freeSet[p] = true
	}
	var sb strings.Builder
	for _, p := range params {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		if freeSet[p] {
			r := b0[p] % period
			if r < 0 {
				r += period
			}
			fmt.Fprintf(&sb, "%s≡%d(mod %d)", p, r, period)
		} else {
			fmt.Fprintf(&sb, "%s=%d", p, b0[p])
		}
	}
	return sb.String()
}

// boundsString renders a bound vector in canonical parameter order.
func boundsString(params []string, bounds map[string]int64) string {
	var sb strings.Builder
	for _, p := range params {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", p, bounds[p])
	}
	return sb.String()
}

// checkClass instantiates bounds from the class forms and compares the
// full fingerprint against a reference compile.
func (t *Template) checkClass(cls *class, period int64, bounds map[string]int64, ref *driver.Compiled) error {
	conc, err := t.Source.Concrete(bounds)
	if err != nil {
		return err
	}
	c, err := t.instantiateClass(cls, period, bounds, conc)
	if err != nil {
		return fmt.Errorf("self-check instantiation at %v: %w", bounds, err)
	}
	if got, want := driver.Fingerprint(c), driver.Fingerprint(ref); got != want {
		return fmt.Errorf("self-check at %v: instantiated artifact differs from concrete compile", bounds)
	}
	return nil
}

// instantiateClass evaluates the closed forms and assembles the
// artifact: clone the class base, patch every leaf, emit the streams,
// rebuild the derived views.  This is the microsecond path.
func (t *Template) instantiateClass(cls *class, period int64, bounds map[string]int64, conc string) (*driver.Compiled, error) {
	tvec, err := ts(cls.free, cls.b0, bounds, period)
	if err != nil {
		return nil, err
	}
	w := weights(tvec)
	vals := make([]int64, len(cls.forms))
	for i, form := range cls.forms {
		vals[i] = evalForm(form, w)
	}

	c := cloneCompiled(cls.base)
	pw := &walker{vals: vals[:cls.nWalk], seen: map[*w2.Symbol]bool{}}
	walkCompiled(c, pw)
	if pw.err != nil {
		return nil, pw.err
	}
	if pw.pos != cls.nWalk {
		return nil, fmt.Errorf("symbolic: walker consumed %d of %d leaves", pw.pos, cls.nWalk)
	}
	pos, err := emitStreams(c, cls.streams, vals, cls.nWalk)
	if err != nil {
		return nil, err
	}
	if pos != len(vals) {
		return nil, fmt.Errorf("symbolic: streams consumed %d of %d leaves", pos-cls.nWalk, len(vals)-cls.nWalk)
	}
	if err := validateInstance(c); err != nil {
		return nil, err
	}
	c.Src = conc
	c.Debug = prof.BuildDebugMap(c.Module.Name, conc, c.Cell)
	c.Timing = cellgen.Timing(c.Cell)
	return c, nil
}

// validateInstance re-checks the architectural limits the probe
// compiles proved at their own sizes: the closed forms scale the
// numbers, so the limits must be re-discharged at the new point.  A
// violation falls back to the concrete compiler, which reproduces the
// exact error (or backoff) a cold compile would give.
func validateInstance(c *driver.Compiled) error {
	if c.Cells < 1 {
		return fmt.Errorf("instantiated cell count %d", c.Cells)
	}
	if n := len(c.IU.Table); n > mcode.TableWords {
		return fmt.Errorf("instantiated IU table %d words exceeds %d", n, mcode.TableWords)
	}
	if c.IUGen.AddrRegs > mcode.IUNumRegs {
		return fmt.Errorf("instantiated IU register pressure %d exceeds %d", c.IUGen.AddrRegs, mcode.IUNumRegs)
	}
	if c.Info.CellMemSize > mcode.MemWords {
		return fmt.Errorf("instantiated cell memory %d words exceeds %d", c.Info.CellMemSize, mcode.MemWords)
	}
	for ch, occ := range c.QueueOcc {
		if occ > mcode.QueueDepth {
			return fmt.Errorf("instantiated queue occupancy %d on %s exceeds %d", occ, ch, mcode.QueueDepth)
		}
	}
	var err error
	checkTrips := func(trips int64, what string) {
		if trips < 1 && err == nil {
			err = fmt.Errorf("instantiated %s trip count %d", what, trips)
		}
	}
	mcode.WalkInstrs(c.Cell.Items, func(_ *mcode.Instr, loops []*mcode.LoopItem) {
		for _, l := range loops {
			checkTrips(l.Trips, "cell loop")
		}
	})
	var walkIU func(items []mcode.IUItem)
	walkIU = func(items []mcode.IUItem) {
		for _, it := range items {
			if l, ok := it.(*mcode.IULoop); ok {
				checkTrips(l.Trips, "IU loop")
				walkIU(l.Body)
			}
		}
	}
	walkIU(c.IU.Items)
	return err
}
