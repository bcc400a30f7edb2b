package service

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"warp"
	"warp/internal/obs"
)

// TemplateCompileFunc builds a symbolic template from ${...} source.
// The template cache calls it once per distinct (source, options) pair;
// tests substitute instrumented implementations (nil means
// warp.CompileTemplate).
type TemplateCompileFunc func(src string, opts warp.Options) (*warp.Template, error)

// instance is one instantiated program and how it was served.
type instance struct {
	prog   *warp.Program
	detail *warp.TemplateDetail
}

// tmplEntry is one resident template plus the store of programs
// instantiated from it, keyed by canonical bound vector.  The template
// itself is tiny (parsed source and fitted closed forms); the
// instantiations hold full microcode artifacts, so they are what the
// caps bound.
type tmplEntry struct {
	tmpl  *warp.Template
	insts *store[instance]
}

// TemplateCacheStats is a snapshot of the template-cache counters.
type TemplateCacheStats struct {
	Templates int // resident templates
	Programs  int // resident instantiated programs across all templates
	Hits      int64
	Misses    int64
	Evictions int64 // instantiated programs evicted (template evictions drop all theirs)
	// Instantiations counts misses served from the closed forms;
	// Fallbacks counts misses that needed a concrete compile.
	Instantiations int64
	Fallbacks      int64
}

// TemplateCache is the service's symbolic-compilation cache: the
// program store (store.go) at two levels — templates keyed by (source,
// codegen options) content address and, under each template, the
// programs instantiated from it keyed by bound vector.  A program's
// public content address is "<template key>@<bounds>", so /run can name
// an instantiated program exactly like a concretely compiled one.
// Template builds and instantiations are both singleflighted; the probe
// compiles that fit a template's residue classes are additionally
// deduplicated inside the template itself.
type TemplateCache struct {
	compile     TemplateCompileFunc
	maxPrograms int // per-template instantiation cap

	templates *store[*tmplEntry]
	tn        counters // template-level traffic; not reported
	n         counters // instantiation traffic of every template, resident or evicted

	instantiations, fallbacks atomic.Int64
}

// NewTemplateCache builds a cache holding at most maxTemplates
// templates with at most maxPrograms instantiated programs each.
func NewTemplateCache(maxTemplates, maxPrograms int, compile TemplateCompileFunc) *TemplateCache {
	if compile == nil {
		compile = warp.CompileTemplate
	}
	tc := &TemplateCache{compile: compile, maxPrograms: maxPrograms}
	tc.templates = newStore(maxTemplates, &tc.tn, func(te *tmplEntry) {
		// An evicted template takes its resident programs with it.
		tc.n.evictions.Add(int64(te.insts.len()))
	})
	return tc
}

// boundsKey canonicalizes a bound vector ("k=5,n=32", sorted by name)
// so equal vectors always address the same instantiation.
func boundsKey(bounds map[string]int64) string {
	names := make([]string, 0, len(bounds))
	for name := range bounds {
		names = append(names, name)
	}
	sort.Strings(names)
	s := ""
	for i, name := range names {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%d", name, bounds[name])
	}
	return s
}

// instSep joins a template's content address to a canonical bound
// vector in an instantiated program's public key.  Template keys are
// hex, so the first instSep splits the two again, and a concrete
// compilation's key (bare hex) can never alias an instantiation's.
const instSep = "@"

// GetObserved returns the program for (src, opts) instantiated at
// bounds, building the template at most once per (source, options) and
// instantiating at most once per bound vector.  The returned key is the
// instantiated program's content address (usable with Lookup and /run);
// hit reports whether the program was already resident; detail reports
// how a miss was served (closed forms or concrete fallback).  When this
// caller owns the instantiation flight, the phases of that work are
// filed as child spans of parent (nil files none).
func (tc *TemplateCache) GetObserved(ctx context.Context, src string, opts warp.Options, bounds map[string]int64, parent *obs.Span) (prog *warp.Program, key string, hit bool, detail *warp.TemplateDetail, err error) {
	tmplKey := Key(src, opts)
	bk := boundsKey(bounds)
	key = tmplKey + instSep + bk

	te, _, err := tc.templates.get(ctx, tmplKey, func() (*tmplEntry, error) {
		tmpl, err := tc.compile(src, opts)
		if err != nil {
			return nil, err
		}
		return &tmplEntry{tmpl: tmpl, insts: newStore[instance](tc.maxPrograms, &tc.n, nil)}, nil
	})
	if err != nil {
		// A request that dies building its template is still a miss.
		tc.n.misses.Add(1)
		return nil, key, false, nil, err
	}
	// If te is evicted while this instantiation is in flight, the
	// program lands in a store nothing reaches any more: it is returned
	// and works, it just is not resident.
	inst, hit, err := te.insts.get(ctx, bk, func() (instance, error) {
		return tc.instantiate(te, bounds, parent)
	})
	return inst.prog, key, hit, inst.detail, err
}

// instantiate is the load of one instantiation flight.
func (tc *TemplateCache) instantiate(te *tmplEntry, bounds map[string]int64, parent *obs.Span) (instance, error) {
	prog, detail, err := te.tmpl.ProgramDetail(bounds, parent)
	if err != nil {
		return instance{}, err
	}
	if detail != nil && detail.Symbolic {
		tc.instantiations.Add(1)
	} else {
		tc.fallbacks.Add(1)
	}
	return instance{prog, detail}, nil
}

// Lookup returns the resident instantiated program for a content
// address, refreshing its and its template's recency.
func (tc *TemplateCache) Lookup(key string) (*warp.Program, bool) {
	tmplKey, bk, ok := strings.Cut(key, instSep)
	if !ok {
		return nil, false
	}
	te, ok := tc.templates.lookup(tmplKey)
	if !ok {
		return nil, false
	}
	inst, ok := te.insts.lookup(bk)
	return inst.prog, ok
}

// Stats snapshots the cache counters.
func (tc *TemplateCache) Stats() TemplateCacheStats {
	s := TemplateCacheStats{
		Hits:           tc.n.hits.Load(),
		Misses:         tc.n.misses.Load(),
		Evictions:      tc.n.evictions.Load(),
		Instantiations: tc.instantiations.Load(),
		Fallbacks:      tc.fallbacks.Load(),
	}
	tc.templates.each(func(te *tmplEntry) {
		s.Templates++
		s.Programs += te.insts.len()
	})
	return s
}
