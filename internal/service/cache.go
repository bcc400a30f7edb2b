// Package service is the long-lived compile-and-run layer over the W2
// compiler and the Warp simulator: a content-addressed LRU compile
// cache with singleflight deduplication, a bounded simulation worker
// pool with admission control and per-request deadlines, and an HTTP
// front end exporting Prometheus metrics.  It turns the one-shot
// compile-from-scratch CLIs into a daemon that compiles once and runs
// many times.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"warp"
	"warp/internal/obs"
)

// CompileFunc compiles W2 source under the given options.  The cache
// calls it once per distinct (source, options) pair; tests substitute
// instrumented implementations.
type CompileFunc func(src string, opts warp.Options) (*warp.Program, error)

// Key is the content address of one compilation: the SHA-256 of the
// source text and every option that affects code generation.  Two
// requests with the same Key are guaranteed the same microcode, so the
// cache may hand both the same *Program (safe — see warp.Program).
func Key(src string, opts warp.Options) string {
	h := sha256.New()
	h.Write([]byte(src))
	// This is the tree's only encoding of codegen-affecting options:
	// a new one must be appended here or identical sources would alias
	// across differing code generation (TestCacheKeyDistinguishesOptions
	// walks the Options fields and fails on one that is neither hashed
	// nor exempted).
	fmt.Fprintf(h, "\x00noopt=%t\x00pipeline=%t\x00cells=%d\x00verify=%t",
		opts.NoOptimize, opts.Pipeline, opts.Cells, opts.Verify)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is a content-addressed LRU compile cache with singleflight
// deduplication: concurrent Get calls for the same key wait on a single
// compilation instead of compiling redundantly.  Compilation errors are
// never cached — the next request retries.  It is the program store
// (store.go) keyed by Key with warp.Compile as the load.
type Cache struct {
	compile CompileFunc
	n       counters
	progs   *store[*warp.Program]
}

// NewCache builds a cache holding at most max compiled programs,
// compiling misses with the given function (nil means warp.Compile).
func NewCache(max int, compile CompileFunc) *Cache {
	if compile == nil {
		compile = warp.Compile
	}
	c := &Cache{compile: compile}
	c.progs = newStore[*warp.Program](max, &c.n, nil)
	return c
}

// Get returns the compiled program for (src, opts), compiling it at
// most once no matter how many goroutines ask concurrently.  The
// returned key is the program's content address (usable with Lookup);
// hit reports whether the program came from the cache rather than a
// fresh compilation.  ctx bounds only this caller's wait — an abandoned
// compilation still completes and populates the cache for others.
func (c *Cache) Get(ctx context.Context, src string, opts warp.Options) (prog *warp.Program, key string, hit bool, err error) {
	return c.GetObserved(ctx, src, opts, nil)
}

// GetObserved is Get for a traced request: when this caller ends up
// owning the compilation flight, the compiled program's phases are
// filed as child spans of parent (nil files none).  Singleflight
// waiters and cache hits see no phases — their request did not compile
// anything, and saying so is the point of request-scoped tracing.
func (c *Cache) GetObserved(ctx context.Context, src string, opts warp.Options, parent *obs.Span) (prog *warp.Program, key string, hit bool, err error) {
	key = Key(src, opts)
	prog, hit, err = c.progs.get(ctx, key, func() (*warp.Program, error) {
		anchor := parent.Now()
		prog, err := c.compile(src, opts)
		if err == nil {
			parent.AddPhases(anchor, prog.Phases())
		}
		return prog, err
	})
	return prog, key, hit, err
}

// Lookup returns the cached program for a content address, if present,
// and refreshes its recency.  An evicted or never-compiled key returns
// ok=false; the caller must resubmit the source.
func (c *Cache) Lookup(key string) (*warp.Program, bool) {
	return c.progs.lookup(key)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries:   c.progs.len(),
		Hits:      c.n.hits.Load(),
		Misses:    c.n.misses.Load(),
		Evictions: c.n.evictions.Load(),
	}
}
