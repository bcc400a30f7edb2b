package warp

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"warp/internal/obs"
	"warp/internal/symbolic"
)

// Template is a symbolically compiled program: W2 source with ${...}
// size parameters, compiled once into closed-form microcode templates
// and instantiated per problem size in microseconds.  The instantiated
// Program is byte-identical to what Compile would produce on the
// substituted source — bounds the closed forms cannot cover fall back
// to a concrete compile transparently, so acceptance, rejection and
// artifacts always match the concrete compiler.
//
// A Template is safe for concurrent use from many goroutines.
type Template struct {
	t *symbolic.Template
}

// TemplateStats is a snapshot of a template's lifetime counters:
// symbolic instantiations, concrete fallbacks, residue classes fitted
// and probe compiles spent fitting them.
type TemplateStats = symbolic.Stats

// TemplateDetail reports how one instantiation request was served.
type TemplateDetail = symbolic.Detail

// CompileTemplate parses ${...}-parameterized W2 source into a
// Template.  No compilation happens yet: the first Program call for a
// bound vector's residue class pays the probe compiles, later calls in
// the class instantiate from the fitted closed forms.
func CompileTemplate(src string, opts Options) (*Template, error) {
	t, err := symbolic.CompileTemplate(src, opts)
	if err != nil {
		return nil, err
	}
	return &Template{t: t}, nil
}

// Params returns the template's bound parameters, sorted.
func (t *Template) Params() []string { return t.t.Params() }

// Stats returns a snapshot of the template's counters.
func (t *Template) Stats() TemplateStats { return t.t.Stats() }

// Program instantiates the template at one bound vector.
func (t *Template) Program(bounds map[string]int64) (*Program, error) {
	p, _, err := t.ProgramDetail(bounds, nil)
	return p, err
}

// ProgramDetail instantiates like Program and additionally reports how
// the request was served (symbolically or by concrete fallback).  The
// phases of the work done for this call (class build, instantiation or
// fallback compile) are filed as child spans of parent; nil files none.
func (t *Template) ProgramDetail(bounds map[string]int64, parent *obs.Span) (*Program, *TemplateDetail, error) {
	start := time.Now()
	anchor := parent.Now()
	c, detail, err := t.t.Instantiate(bounds)
	if err != nil {
		return nil, nil, err
	}
	parent.AddPhases(anchor, c.Phases)
	return &Program{c: c, compileTime: time.Since(start)}, detail, nil
}

// ModeledCycles evaluates the closed-form cycle prediction for one
// bound vector — the modeled total the fast-execution backend and
// progress reporting use — without a concrete compile.
func (t *Template) ModeledCycles(bounds map[string]int64) (int64, error) {
	return t.t.ModeledCycles(bounds)
}

// Check instantiates the template at bounds and independently compiles
// the substituted source from scratch, failing unless the two
// artifacts are byte-identical.  It backs `w2c -symbolic -check`.
func (t *Template) Check(bounds map[string]int64) error {
	return t.t.Check(bounds)
}

// ParseBounds parses a command-line bound vector of the form
// "n=32,k=5" into a bounds map (whitespace around entries is allowed).
func ParseBounds(s string) (map[string]int64, error) {
	bounds := map[string]int64{}
	if strings.TrimSpace(s) == "" {
		return bounds, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad bound %q (want name=value)", part)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad bound %q: %v", part, err)
		}
		bounds[strings.TrimSpace(name)] = n
	}
	return bounds, nil
}
