package service

import (
	"context"
	"errors"
	"sync"
)

// ErrBusy is returned by Pool.Do when the admission queue is full: the
// service is saturated and the client should back off and retry (the
// HTTP layer maps this to 429 with a Retry-After hint).
var ErrBusy = errors.New("service: worker pool saturated")

// ErrClosed is returned by Pool.Do after Close has begun draining.
var ErrClosed = errors.New("service: pool closed")

// job is one admitted unit of work.  The submitting goroutine waits on
// done; the worker publishes err before closing it.
type job struct {
	ctx  context.Context
	fn   func(context.Context) error
	err  error
	done chan struct{}
}

// PoolStats is a snapshot of the pool counters.
type PoolStats struct {
	Workers      int
	QueueDepth   int // jobs currently queued (excludes running)
	QueueCap     int
	HighWater    int   // peak queued depth observed
	Rejected     int64 // Do calls refused with ErrBusy
	Completed    int64 // jobs whose fn finished (returned or panicked)
	Abandoned    int64 // jobs whose context expired before a worker picked them up
	InFlight     int   // jobs executing right now
	InFlightPeak int
}

// Pool is a bounded simulation worker pool with an admission queue.
// Admission is non-blocking: when the queue is full Do fails fast with
// ErrBusy instead of queueing unbounded work, which keeps latency
// bounded under overload (the caller applies backpressure upstream).
// A job whose context expires while still queued is skipped by the
// worker — a pile-up of expired requests cannot occupy workers.
type Pool struct {
	queue chan *job
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	stats  PoolStats
}

// NewPool starts workers goroutines servicing an admission queue of
// queueCap pending jobs.
func NewPool(workers, queueCap int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	p := &Pool{queue: make(chan *job, queueCap)}
	p.stats.Workers = workers
	p.stats.QueueCap = queueCap
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.mu.Lock()
		p.stats.QueueDepth--
		p.mu.Unlock()
		if err := j.ctx.Err(); err != nil {
			// The client's deadline passed (or it disconnected) while
			// the job sat in the queue; don't burn a worker on it.
			p.mu.Lock()
			p.stats.Abandoned++
			p.mu.Unlock()
			j.err = err
			close(j.done)
			continue
		}
		p.mu.Lock()
		p.stats.InFlight++
		if p.stats.InFlight > p.stats.InFlightPeak {
			p.stats.InFlightPeak = p.stats.InFlight
		}
		p.mu.Unlock()
		p.run(j)
	}
}

// run executes one admitted job.  Landing is deferred, as in store.fly:
// pool goroutines sit outside net/http's recover, so a panicking fn
// must become that one job's error (errPanic, a 500) rather than
// the death of the daemon, and the worker goes on to the next job.
func (p *Pool) run(j *job) {
	j.err = errPanic // stands unless fn returns
	defer func() {
		if r := recover(); r != nil {
			j.err = recovered(r)
		}
		p.mu.Lock()
		p.stats.InFlight--
		p.stats.Completed++
		p.mu.Unlock()
		close(j.done)
	}()
	j.err = j.fn(j.ctx)
}

// Do admits fn and waits for its completion or for ctx.  If the queue
// is full it fails immediately with ErrBusy.  If ctx is done first, Do
// returns ctx.Err() without waiting; the job itself is skipped (if
// still queued) or cancelled via ctx (if running — the simulator's run
// loop polls it).
func (p *Pool) Do(ctx context.Context, fn func(context.Context) error) error {
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	select {
	case p.queue <- j:
		p.stats.QueueDepth++
		if p.stats.QueueDepth > p.stats.HighWater {
			p.stats.HighWater = p.stats.QueueDepth
		}
		p.mu.Unlock()
	default:
		p.stats.Rejected++
		p.mu.Unlock()
		return ErrBusy
	}
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops admission and drains: it waits for every queued and
// running job to finish.  Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
