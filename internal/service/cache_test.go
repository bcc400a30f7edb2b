package service

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"warp"
	"warp/internal/driver"
	"warp/internal/workloads"
)

// TestCacheKeyDistinguishesOptions walks driver.Options (warp.Options is
// its alias) field by field: setting any one field must change the
// content address, and to a value no other field produces, unless the
// field is on the short list of options that cannot affect code
// generation — those must leave the key alone.  A new option therefore
// fails here until it is either hashed by Key or exempted on purpose.
func TestCacheKeyDistinguishesOptions(t *testing.T) {
	notCodegen := map[string]bool{
		"CompileWorkers": true, // ignored by the compiler
		"Verify":         true, // ignored: every compile is verified
	}
	src := workloads.Polynomial(10, 50)
	base := Key(src, driver.Options{})
	if Key(src, warp.Options{}) != base {
		t.Error("Key is not deterministic")
	}
	seen := map[string]string{base: "the zero Options"}
	typ := reflect.TypeOf(driver.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var opts driver.Options
		switch f := reflect.ValueOf(&opts).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(5)
		default:
			t.Fatalf("driver.Options.%s has kind %s; teach this test to set it", name, f.Kind())
		}
		k := Key(src, opts)
		if notCodegen[name] {
			if k != base {
				t.Errorf("%s leaked into the cache key", name)
			}
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("setting %s gives the same key as %s: hash it in Key, or list it as not affecting codegen", name, prev)
		}
		seen[k] = name
	}
}

func TestCacheSeparatesPipelineEntries(t *testing.T) {
	src := workloads.Polynomial(10, 50)
	c := NewCache(8, nil)
	ctx := context.Background()
	_, k1, hit1, err := c.Get(ctx, src, warp.Options{})
	if err != nil || hit1 {
		t.Fatalf("first compile: hit=%v err=%v", hit1, err)
	}
	_, k2, hit2, err := c.Get(ctx, src, warp.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if hit2 {
		t.Error("Options{Pipeline: true} hit the default-options entry")
	}
	if k1 == k2 {
		t.Error("pipeline and default compiles share a key")
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses, 2 entries", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	srcs := []string{
		workloads.Polynomial(10, 40),
		workloads.Polynomial(10, 50),
		workloads.Polynomial(10, 60),
	}
	c := NewCache(2, nil)
	ctx := context.Background()
	var keys []string
	for _, src := range srcs[:2] {
		_, k, _, err := c.Get(ctx, src, warp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Touch the older entry so it is the most recent; the untouched one
	// must be the eviction victim.
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Fatal("keys[0] missing before eviction")
	}
	_, k3, _, err := c.Get(ctx, srcs[2], warp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(keys[1]); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Error("recently touched entry was evicted")
	}
	if _, ok := c.Lookup(k3); !ok {
		t.Error("newest entry was evicted")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", s)
	}
}

// TestCacheSingleflight proves two concurrent compiles of the same
// source run the driver exactly once: the second caller waits on the
// first flight and shares its *Program.  The driver-invocation count is
// an atomic counter around the compile function.
func TestCacheSingleflight(t *testing.T) {
	var invocations atomic.Int32
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	compile := func(src string, opts warp.Options) (*warp.Program, error) {
		invocations.Add(1)
		entered <- struct{}{}
		<-release
		return warp.Compile(src, opts)
	}
	c := NewCache(8, compile)
	src := workloads.PolynomialPaper()

	type result struct {
		prog *warp.Program
		hit  bool
		err  error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			prog, _, hit, err := c.Get(context.Background(), src, warp.Options{})
			results <- result{prog, hit, err}
		}()
	}
	<-entered // one flight is inside the compile function
	// The other goroutine either becomes a waiter on that flight or has
	// not reached the cache yet; release the gate and settle both.
	close(release)
	r1, r2 := <-results, <-results
	if r1.err != nil || r2.err != nil {
		t.Fatalf("errors: %v, %v", r1.err, r2.err)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("driver invoked %d times, want exactly 1", n)
	}
	if r1.prog != r2.prog {
		t.Error("concurrent callers got distinct *Program values")
	}
	if r1.hit == r2.hit {
		t.Errorf("want one miss (the flight owner) and one hit (the waiter); got hit=%v and hit=%v", r1.hit, r2.hit)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit", s)
	}
}

// TestCacheErrorNotCached proves a failed compilation is retried, not
// pinned.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(8, nil)
	ctx := context.Background()
	if _, _, _, err := c.Get(ctx, "cellprogram nonsense(", warp.Options{}); err == nil {
		t.Fatal("want a compile error")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("error was cached: %+v", s)
	}
	// Second attempt recompiles (another miss), not a cached error.
	if _, _, _, err := c.Get(ctx, "cellprogram nonsense(", warp.Options{}); err == nil {
		t.Fatal("want a compile error again")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses", s)
	}
}
