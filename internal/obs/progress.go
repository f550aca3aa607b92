package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Progress aggregates live counters from the experiment engine: jobs
// completed, cache hits, and executed simulations. Safe for concurrent use;
// the engine increments from its worker goroutines.
type Progress struct {
	jobs  atomic.Uint64
	hits  atomic.Uint64
	sims  atomic.Uint64
	start time.Time
}

// NewProgress returns a counter set anchored at the current time.
//
//lint:allow determinism -- live progress display measures wall-clock throughput, not simulated state
func NewProgress() *Progress { return &Progress{start: time.Now()} }

// JobDone records one completed job; hit marks run-cache hits.
func (p *Progress) JobDone(hit bool) {
	p.jobs.Add(1)
	if hit {
		p.hits.Add(1)
	} else {
		p.sims.Add(1)
	}
}

// Snapshot returns (jobs, cache hits, executed simulations, sims/sec).
func (p *Progress) Snapshot() (jobs, hits, sims uint64, simsPerSec float64) {
	jobs, hits, sims = p.jobs.Load(), p.hits.Load(), p.sims.Load()
	//lint:allow determinism -- sims/sec is a wall-clock rate for the operator, not simulation output
	if el := time.Since(p.start).Seconds(); el > 0 {
		simsPerSec = float64(sims) / el
	}
	return
}

// Start launches a reporter goroutine that rewrites one status line on w
// every interval. The returned stop function halts it and prints a final
// newline-terminated summary.
func (p *Progress) Start(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	line := func(end string) {
		jobs, hits, sims, rate := p.Snapshot()
		fmt.Fprintf(w, "\rprogress: runs=%d cache-hits=%d sims=%d sims/sec=%.1f%s", jobs, hits, sims, rate, end)
	}
	go func() {
		defer close(finished)
		//lint:allow determinism -- the reporter goroutine repaints on wall-clock time by design
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				line("\n")
				return
			case <-t.C:
				line("")
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
