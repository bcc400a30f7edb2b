package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"warp/internal/obs"
	"warp/internal/workloads"
)

// TestProgressEntryDelivery pins the publish contract: a slow
// subscriber loses intermediate updates but the terminal update always
// lands, and finish is an idempotent fallback that never overwrites a
// real terminal update.
func TestProgressEntryDelivery(t *testing.T) {
	e := &request{RequestRecord: RequestRecord{ID: "r1"}}
	snap, ch, cancel := e.subscribe()
	defer cancel()
	if snap.Done || snap.Cycles != 0 {
		t.Fatalf("fresh entry snapshot = %+v, want zero", snap)
	}

	// Flood far past the channel capacity without draining.
	for i := 1; i <= 100; i++ {
		e.publish(obs.ProgressUpdate{Cycles: int64(i * 100), TotalCycles: 10000})
	}
	e.publish(obs.ProgressUpdate{Cycles: 10000, TotalCycles: 10000, Done: true})

	var last obs.ProgressUpdate
	for {
		var ok bool
		select {
		case last, ok = <-ch:
			if !ok {
				t.Fatal("subscriber channel closed")
			}
		default:
			ok = false
		}
		if !ok || last.Done {
			break
		}
	}
	if !last.Done || last.Cycles != 10000 {
		t.Errorf("terminal update lost under flood: last = %+v", last)
	}

	// finish after a real terminal update must not re-deliver.
	e.endProgress()
	select {
	case u := <-ch:
		t.Errorf("finish re-delivered after terminal update: %+v", u)
	default:
	}

	// On an entry that never completed, finish synthesizes the terminal
	// event from the last observed position.
	e2 := &request{RequestRecord: RequestRecord{ID: "r2"}}
	_, ch2, cancel2 := e2.subscribe()
	defer cancel2()
	e2.publish(obs.ProgressUpdate{Cycles: 42})
	e2.endProgress()
	deadline := time.After(time.Second)
	for {
		select {
		case u := <-ch2:
			if u.Done {
				if u.Cycles != 42 {
					t.Errorf("synthesized terminal update = %+v, want cycles 42", u)
				}
				return
			}
		case <-deadline:
			t.Fatal("finish never delivered a terminal update")
		}
	}
}

// sseEvent is one parsed text/event-stream frame.
type sseEvent struct {
	name string
	data ProgressEvent
}

// readSSE parses event frames off the stream until the terminal "done"
// event or an error.
func readSSE(t *testing.T, r *bufio.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var name string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended without a done event (after %d events): %v", len(events), err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev ProgressEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("SSE data not valid JSON: %v in %q", err, line)
			}
			events = append(events, sseEvent{name: name, data: ev})
			if name == "done" {
				return events
			}
		case line == "":
			// frame separator
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
}

// TestProgressSSE runs a partitioned job and streams its progress over
// SSE end to end: the stream yields at least one event, cycle counts
// are monotone, and it terminates with a "done" event.  The watcher
// discovers the request ID through GET /debug/progress, exercising the
// listing too.
func TestProgressSSE(t *testing.T) {
	svc := New(Config{Workers: 2, Arrays: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	const d = 24
	a, b := workloads.LargeMatmulData(d, d, d, 13)
	runDone := make(chan error, 1)
	go func() {
		resp, body := postJSON(t, client, ts.URL+"/run", RunRequest{
			Source: workloads.Matmul(8), Inputs: map[string][]float64{"a": a, "bmat": b},
			Partition: &PartitionJSON{Workload: "matmul", M: d, K: d, N: d},
		})
		if resp.StatusCode != http.StatusOK {
			runDone <- fmt.Errorf("partitioned run: status %d: %s", resp.StatusCode, body)
			return
		}
		runDone <- nil
	}()

	// Discover the request ID via the listing.  The run may already have
	// finished — the SSE contract below holds either way.
	var id string
	for i := 0; i < 200 && id == ""; i++ {
		resp, err := client.Get(ts.URL + "/debug/progress")
		if err != nil {
			t.Fatal(err)
		}
		var listing struct {
			Progress []ProgressEvent `json:"progress"`
		}
		err = json.NewDecoder(resp.Body).Decode(&listing)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(listing.Progress) > 0 {
			id = listing.Progress[0].ID
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if id == "" {
		t.Fatal("run never appeared in /debug/progress")
	}

	resp, err := client.Get(ts.URL + "/debug/requests/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type = %q", ct)
	}

	events := readSSE(t, bufio.NewReader(resp.Body))
	if len(events) < 1 {
		t.Fatal("SSE stream delivered no events")
	}
	last := events[len(events)-1]
	if last.name != "done" || !last.data.Done {
		t.Errorf("stream did not terminate with a done event: %+v", last)
	}
	var prev int64 = -1
	for i, ev := range events {
		if ev.data.ID != id {
			t.Errorf("event %d carries ID %q, want %q", i, ev.data.ID, id)
		}
		if ev.data.Cycles < prev {
			t.Errorf("cycles regressed at event %d: %d after %d", i, ev.data.Cycles, prev)
		}
		prev = ev.data.Cycles
		if i < len(events)-1 && ev.name != "progress" {
			t.Errorf("non-terminal event %d named %q, want progress", i, ev.name)
		}
	}

	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	// After completion the snapshot form reports done, and a fresh SSE
	// connection gets the lone terminal event immediately.
	jresp, err := client.Get(ts.URL + "/debug/requests/" + id + "/progress?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap ProgressEvent
	err = json.NewDecoder(jresp.Body).Decode(&snap)
	jresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done {
		t.Errorf("post-completion snapshot not done: %+v", snap)
	}
	sresp, err := client.Get(ts.URL + "/debug/requests/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	late := readSSE(t, bufio.NewReader(sresp.Body))
	sresp.Body.Close()
	if len(late) != 1 || late[0].name != "done" {
		t.Errorf("post-completion SSE = %+v, want a single done event", late)
	}

	// Unknown IDs are a clean 404.
	nresp, err := client.Get(ts.URL + "/debug/requests/nope/progress")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ID: status %d, want 404", nresp.StatusCode)
	}
}
