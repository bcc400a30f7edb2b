package warp

import (
	"warp/internal/obs"
	"warp/internal/symbolic"
)

// Template is a size-parameterized program: W2 source whose integer
// positions may be ${expr} placeholders over named bounds, plus the
// options to compile it under.  Program substitutes one bound vector
// and compiles the resulting text with Compile — there is no other
// path, so acceptance, rejection and artifacts are the concrete
// compiler's by construction.
//
// A Template is immutable and safe for concurrent use.
type Template struct {
	src  *symbolic.Source
	opts Options
}

// TemplateDetail reports how one Program request was served.  It is
// wire format (the "template" field of warpd's responses and flight
// records) from when a template could serve a request from fitted
// closed forms; substitution always compiles, so Symbolic and
// ClassBuilt are always false.
type TemplateDetail struct {
	Symbolic   bool `json:"symbolic"`
	ClassBuilt bool `json:"class_built,omitempty"`
}

// TemplateStats is the zero value: the counters of the removed
// instantiation engine, kept so that the frozen benchmark/ module, which
// reads them, still builds.
type TemplateStats struct {
	Instantiations int64 `json:"instantiations"`
	Fallbacks      int64 `json:"fallbacks"`
	ClassBuilds    int64 `json:"class_builds"`
	ProbeCompiles  int64 `json:"probe_compiles"`
}

// CompileTemplate parses ${...}-parameterized W2 source into a
// Template.  Nothing is compiled until Program names a bound vector.
func CompileTemplate(src string, opts Options) (*Template, error) {
	s, err := symbolic.ParseSource(src)
	if err != nil {
		return nil, err
	}
	return &Template{src: s, opts: opts}, nil
}

// Params returns the template's bound parameters, sorted.
func (t *Template) Params() []string { return t.src.Params }

// Stats returns the zero TemplateStats (see the type).
func (t *Template) Stats() TemplateStats { return TemplateStats{} }

// Program compiles the template at one bound vector.
func (t *Template) Program(bounds map[string]int64) (*Program, error) {
	p, _, err := t.ProgramDetail(bounds, nil)
	return p, err
}

// ProgramDetail is Program for a traced request: the compile's phases
// are filed as child spans of parent (nil files none).
func (t *Template) ProgramDetail(bounds map[string]int64, parent *obs.Span) (*Program, *TemplateDetail, error) {
	conc, err := t.src.Concrete(bounds)
	if err != nil {
		return nil, nil, err
	}
	anchor := parent.Now()
	p, err := Compile(conc, t.opts)
	if err != nil {
		return nil, nil, err
	}
	parent.AddPhases(anchor, p.Phases())
	return p, &TemplateDetail{}, nil
}

// Check reports whether bounds compile.  It used to compare an
// instantiated artifact with a from-scratch compile; the two are now
// the same compile, and the method remains for benchmark/.
func (t *Template) Check(bounds map[string]int64) error {
	_, err := t.Program(bounds)
	return err
}
