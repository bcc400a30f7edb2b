package service

import (
	"fmt"
	"testing"

	"warp/internal/obs"
)

// TestRequestRegistry pins the one bounded-memory policy for requests:
// a live request is always tracked, the last FlightSize finished ones
// are kept newest first, and a finished request's progress snapshot
// lives exactly as long as its flight record.
func TestRequestRegistry(t *testing.T) {
	begin := func(svc *Server, n int) []*request {
		rqs := make([]*request, n)
		for i := range rqs {
			rqs[i] = svc.beginRequest("/run")
		}
		return rqs
	}
	tracked := func(t *testing.T, svc *Server, rqs []*request, want bool) {
		t.Helper()
		for _, rq := range rqs {
			if got, _ := svc.requests.get(rq.ID); (got == rq) != want {
				t.Errorf("request %s tracked = %t, want %t", rq.ID, got == rq, want)
			}
		}
	}
	recordIDs := func(svc *Server) string {
		ids := ""
		for _, r := range svc.requests.records() {
			ids += r.ID + " "
		}
		return ids
	}
	for _, c := range []struct {
		name       string
		flightSize int
		run        func(t *testing.T, svc *Server)
	}{
		{"live requests are never evicted, even past the cap", 3, func(t *testing.T, svc *Server) {
			live := begin(svc, 5)
			tracked(t, svc, live, true)
			if got := len(svc.requests.progress()); got != 5 {
				t.Errorf("registry lists %d progress streams, want 5 (grown past the cap of 3)", got)
			}
			// Finished requests cycling through the ring leave the live
			// ones alone.
			for _, rq := range begin(svc, 4) {
				svc.finishRequest(rq, nil)
			}
			tracked(t, svc, live, true)
			if _, finished := svc.requests.get(live[0].ID); finished {
				t.Errorf("live request %s reported finished", live[0].ID)
			}
			if got := len(svc.requests.records()); got != 3 {
				t.Errorf("%d finished records kept, want 3", got)
			}
		}},
		{"the last N finished are kept, newest first", 3, func(t *testing.T, svc *Server) {
			rqs := begin(svc, 5)
			// Finish out of registration order: the ring keeps finish order.
			for _, i := range []int{1, 0, 2, 4, 3} {
				svc.finishRequest(rqs[i], nil)
			}
			want := fmt.Sprintf("%s %s %s ", rqs[3].ID, rqs[4].ID, rqs[2].ID)
			if got := recordIDs(svc); got != want {
				t.Errorf("records = %q, want %q", got, want)
			}
			tracked(t, svc, []*request{rqs[1], rqs[0]}, false)
			for _, rq := range rqs[2:] {
				if got, finished := svc.requests.get(rq.ID); got != rq || !finished {
					t.Errorf("kept request %s: get = %v, finished %t", rq.ID, got, finished)
				}
			}
		}},
		{"a finished request's progress is served until its record is evicted", 2, func(t *testing.T, svc *Server) {
			rq := begin(svc, 1)[0]
			rq.publish(obs.ProgressUpdate{Cycles: 42, TotalCycles: 100})
			if ev := rq.snapshot(); ev.Done || ev.Cycles != 42 {
				t.Errorf("live snapshot = %+v, want cycles 42, not done", ev)
			}
			svc.finishRequest(rq, nil)
			later := begin(svc, 2)
			svc.finishRequest(later[0], nil)
			got, finished := svc.requests.get(rq.ID)
			if got != rq || !finished {
				t.Fatalf("finished request dropped with the ring not yet full")
			}
			if ev := got.snapshot(); !ev.Done || ev.Cycles != 42 || ev.ID != rq.ID {
				t.Errorf("finished snapshot = %+v, want the last position, done", ev)
			}
			if evs := svc.requests.progress(); len(evs) != 3 || evs[0].ID != rq.ID || evs[2].ID != later[1].ID {
				t.Errorf("progress listing = %+v, want the three tracked requests oldest first", evs)
			}
			svc.finishRequest(later[1], nil)
			tracked(t, svc, []*request{rq}, false)
			if evs := svc.requests.progress(); len(evs) != 2 {
				t.Errorf("progress listing still holds %d streams after the eviction, want 2", len(evs))
			}
		}},
		{"FlightSize -1 tracks live requests only", -1, func(t *testing.T, svc *Server) {
			rq := begin(svc, 1)[0]
			if rq.tr != nil {
				t.Errorf("request traced with the flight recorder off")
			}
			tracked(t, svc, []*request{rq}, true)
			if evs := svc.requests.progress(); len(evs) != 1 || evs[0].ID != rq.ID {
				t.Errorf("progress listing = %+v, want the live request", evs)
			}
			svc.finishRequest(rq, nil)
			tracked(t, svc, []*request{rq}, false)
			if got := recordIDs(svc); got != "" {
				t.Errorf("disabled recorder kept records %q", got)
			}
		}},
		{"a bare compilation has a record but no progress stream", 3, func(t *testing.T, svc *Server) {
			rq := svc.beginRequest("/compile")
			svc.finishRequest(rq, nil)
			if got := recordIDs(svc); got != rq.ID+" " {
				t.Errorf("records = %q, want the compile request", got)
			}
			if evs := svc.requests.progress(); len(evs) != 0 {
				t.Errorf("progress listing = %+v, want none", evs)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			svc := New(Config{Workers: 1, FlightSize: c.flightSize})
			defer svc.Close()
			c.run(t, svc)
		})
	}
}
