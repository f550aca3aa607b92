package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

// peakRSS samples the process's resident set size every millisecond while
// one pass runs and reports the highest value seen.
type peakRSS struct {
	f    *os.File
	buf  []byte
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64
}

// startPeakRSS begins sampling. Stop must be called to end the sampler.
func startPeakRSS() (*peakRSS, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("peak memory: %w", err)
	}
	p := &peakRSS{f: f, buf: make([]byte, 128), stop: make(chan struct{}), done: make(chan struct{})}
	if err := p.sample(); err != nil {
		f.Close()
		return nil, err
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				_ = p.sample() // a failed read only loses one sample
			}
		}
	}()
	return p, nil
}

// sample reads the current RSS and raises the peak.
func (p *peakRSS) sample() error {
	n, err := p.f.ReadAt(p.buf, 0)
	if n == 0 {
		return fmt.Errorf("peak memory: read statm: %v", err)
	}
	fields := bytes.Fields(p.buf[:n])
	if len(fields) < 2 {
		return fmt.Errorf("peak memory: malformed statm %q", p.buf[:n])
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return fmt.Errorf("peak memory: %w", err)
	}
	rss := pages * int64(os.Getpagesize())
	p.mu.Lock()
	if rss > p.peak {
		p.peak = rss
	}
	p.mu.Unlock()
	return nil
}

// Stop ends sampling, waits for the sampler goroutine and returns the peak
// in MB (10^6 bytes).
func (p *peakRSS) Stop() float64 {
	close(p.stop)
	<-p.done
	_ = p.sample()
	p.f.Close()
	return float64(p.peak) / 1e6
}

// settle returns freed memory to the OS so every pass starts from the same
// heap and its peak RSS is its own.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runtimeCounters snapshots the Go runtime's cumulative allocation and GC
// pause totals.
type runtimeCounters struct {
	allocBytes uint64
	pauseNs    float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readRuntime() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, n := range h.Counts {
			// Bucket midpoints; the outermost buckets are unbounded.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 || math.IsInf(lo, 0) {
				lo = 0
			}
			if math.IsInf(hi, 0) {
				hi = lo
			}
			c.pauseNs += float64(n) * (lo + hi) / 2 * 1e9
		}
	}
	return c
}

// sub returns the counters accumulated since an earlier snapshot, as
// (allocated MB, GC pause ms).
func (c runtimeCounters) sub(before runtimeCounters) (allocMB, pauseMs float64) {
	return float64(c.allocBytes-before.allocBytes) / 1e6, (c.pauseNs - before.pauseNs) / 1e6
}

// liveHeapMB runs a full GC and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// timerBias calibrates what an empty timed region reads: the part of the
// two clock reads that falls between their samples. Every live-timed call in
// the traced run pays it, so it is moved out of the layer the call was
// charged to and into the tracing overhead. It is the median of batch means,
// so a preemption during calibration cannot inflate it.
func timerBias() time.Duration {
	const batches, n = 21, 10_000
	means := make([]float64, batches)
	for b := range means {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		means[b] = float64(sum) / n
	}
	return time.Duration(median(means))
}
