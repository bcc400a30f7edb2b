package service

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"warp"
	"warp/internal/obs"
)

// TemplateCompileFunc parses ${...} source into a template.  The
// template cache calls it once per distinct (source, options) pair;
// tests substitute instrumented implementations (nil means
// warp.CompileTemplate).
type TemplateCompileFunc func(src string, opts warp.Options) (*warp.Template, error)

// tmplEntry is one resident template plus the store of programs
// compiled from it, keyed by canonical bound vector.  The template
// itself is tiny (parsed source); the programs hold full microcode
// artifacts, so they are what the caps bound.
type tmplEntry struct {
	tmpl  *warp.Template
	insts *store[*warp.Program]
}

// TemplateCacheStats is a snapshot of the template-cache counters.
type TemplateCacheStats struct {
	Templates int // resident templates
	Programs  int // resident programs across all templates
	Hits      int64
	Misses    int64
	Evictions int64 // programs evicted (template evictions drop all theirs)
	// Fallbacks is always zero: it counted misses the removed
	// instantiation engine could not serve, and stays for benchmark/.
	Fallbacks int64
}

// TemplateCache is the service's cache for `bounds` requests: the
// program store (store.go) at two levels — templates keyed by (source,
// codegen options) content address and, under each template, the
// programs compiled from it keyed by bound vector.  A program's public
// content address is "<template key>@<bounds>", so /run can name it
// exactly like a program compiled from plain source.  Template parses
// and per-bounds compiles are both singleflighted.
//
// The two levels are a residency policy, not a mechanism: a family's
// sizes evict each other (at most maxPrograms of them stay) and never
// the plain-source programs in Cache.  Folding this into Cache changes
// what stays resident under churn — measured on benchmark/'s
// serve-churn, 11 % fewer requests per second at its cache sizes — so
// it waits for a change that may re-choose those sizes.
type TemplateCache struct {
	compile     TemplateCompileFunc
	maxPrograms int // per-template program cap

	templates *store[*tmplEntry]
	tn        counters // template-level traffic; not reported
	n         counters // program traffic of every template, resident or evicted
}

// NewTemplateCache builds a cache holding at most maxTemplates
// templates with at most maxPrograms compiled programs each.
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
// so equal vectors always address the same program.
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
// vector in a program's public key.  Template keys are hex, so the
// first instSep splits the two again, and a plain-source compilation's
// key (bare hex) can never alias a template program's.
const instSep = "@"

// GetObserved returns the program for (src, opts) at bounds, parsing
// the template at most once per (source, options) and compiling at most
// once per bound vector.  The returned key is the program's content
// address (usable with Lookup and /run); hit reports whether the
// program was already resident; detail is the wire-format record of how
// it was served.  When this caller owns the compile flight, the phases
// of that compile are filed as child spans of parent (nil files none).
func (tc *TemplateCache) GetObserved(ctx context.Context, src string, opts warp.Options, bounds map[string]int64, parent *obs.Span) (prog *warp.Program, key string, hit bool, detail *warp.TemplateDetail, err error) {
	tmplKey := Key(src, opts)
	bk := boundsKey(bounds)
	key = tmplKey + instSep + bk

	te, _, err := tc.templates.get(ctx, tmplKey, func() (*tmplEntry, error) {
		tmpl, err := tc.compile(src, opts)
		if err != nil {
			return nil, err
		}
		return &tmplEntry{tmpl: tmpl, insts: newStore[*warp.Program](tc.maxPrograms, &tc.n, nil)}, nil
	})
	if err != nil {
		// A request that dies building its template is still a miss.
		tc.n.misses.Add(1)
		return nil, key, false, nil, err
	}
	// If te is evicted while this compile is in flight, the program
	// lands in a store nothing reaches any more: it is returned and
	// works, it just is not resident.
	prog, hit, err = te.insts.get(ctx, bk, func() (*warp.Program, error) {
		prog, _, err := te.tmpl.ProgramDetail(bounds, parent)
		return prog, err
	})
	if err != nil {
		return nil, key, false, nil, err
	}
	return prog, key, hit, &warp.TemplateDetail{}, nil
}

// Lookup returns the resident program for a content address,
// refreshing its and its template's recency.
func (tc *TemplateCache) Lookup(key string) (*warp.Program, bool) {
	tmplKey, bk, ok := strings.Cut(key, instSep)
	if !ok {
		return nil, false
	}
	te, ok := tc.templates.lookup(tmplKey)
	if !ok {
		return nil, false
	}
	return te.insts.lookup(bk)
}

// Stats snapshots the cache counters.
func (tc *TemplateCache) Stats() TemplateCacheStats {
	s := TemplateCacheStats{
		Hits:      tc.n.hits.Load(),
		Misses:    tc.n.misses.Load(),
		Evictions: tc.n.evictions.Load(),
	}
	tc.templates.each(func(te *tmplEntry) {
		s.Templates++
		s.Programs += te.insts.len()
	})
	return s
}
