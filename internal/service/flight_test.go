package service

import (
	"fmt"
	"sync"
	"testing"
)

// TestFlightRingEvictionConcurrent hammers the request registry from
// many finishing requests at once and checks the ring invariants hold
// throughout:
// never more than size records, no nil slots in a snapshot, and after
// the dust settles exactly the newest size records remain, newest
// first.
func TestFlightRingEvictionConcurrent(t *testing.T) {
	const (
		size    = 8
		writers = 16
		perW    = 50
	)
	f := newRegistry(size)
	add := func(id string) {
		e := &request{RequestRecord: RequestRecord{ID: id, Outcome: "ok"}}
		f.add(e)
		f.finish(e)
	}

	// A reader snapshots continuously while the writers race, so
	// eviction and iteration interleave.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := f.records()
			if len(snap) > size {
				t.Errorf("snapshot has %d records, ring size is %d", len(snap), size)
				return
			}
			for i, r := range snap {
				if r == nil {
					t.Errorf("snapshot slot %d is nil", i)
					return
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				add(fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	<-readerDone

	snap := f.records()
	if len(snap) != size {
		t.Fatalf("after %d adds the ring holds %d records, want %d", writers*perW, len(snap), size)
	}
	seen := map[string]bool{}
	for _, r := range snap {
		if r == nil {
			t.Fatal("nil record survived in the final snapshot")
		}
		if seen[r.ID] {
			t.Errorf("duplicate record %s in snapshot", r.ID)
		}
		seen[r.ID] = true
	}

	// Sequential tail: the last size writes are exactly what remains,
	// newest first, and get() finds each by ID.
	for i := 0; i < size*2; i++ {
		add(fmt.Sprintf("tail-%d", i))
	}
	snap = f.records()
	for i, r := range snap {
		want := fmt.Sprintf("tail-%d", size*2-1-i)
		if r.ID != want {
			t.Errorf("snapshot[%d] = %s, want %s (newest first)", i, r.ID, want)
		}
		if got, finished := f.get(r.ID); got == nil || &got.RequestRecord != r || !finished {
			t.Errorf("get(%s) returned a different record", r.ID)
		}
	}
	if got, _ := f.get("tail-0"); got != nil {
		t.Errorf("evicted record tail-0 still reachable via get")
	}
	if got, _ := f.get("no-such-id"); got != nil {
		t.Errorf("get of an unknown ID returned a record")
	}
}

// TestFlightRecorderDisabled pins the size<1 no-op contract.
func TestFlightRecorderDisabled(t *testing.T) {
	f := newRegistry(0)
	e := &request{RequestRecord: RequestRecord{ID: "x"}}
	f.add(e)
	if got, finished := f.get("x"); got != e || finished {
		t.Errorf("live request not tracked: get = %v, finished %t", got, finished)
	}
	f.finish(e)
	if snap := f.records(); len(snap) != 0 {
		t.Errorf("disabled recorder returned %d records", len(snap))
	}
	if got, _ := f.get("x"); got != nil {
		t.Errorf("disabled recorder stored a record")
	}
}
