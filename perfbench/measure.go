package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

const (
	metricHeapObjects = "/memory/classes/heap/objects:bytes"
	metricHeapAllocs  = "/gc/heap/allocs:bytes"
	metricGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
)

// readMetrics samples the named runtime/metrics values.
func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// heapPeak samples heap-in-use every few milliseconds from start until
// stop, keeping the maximum.
type heapPeak struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  float64
}

// startHeapPeak forces a GC (the end of set-up) and starts sampling.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stopc: make(chan struct{})}
	h.peak = readMetrics(metricHeapObjects)[0]
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				h.peak = max(h.peak, readMetrics(metricHeapObjects)[0])
			}
		}
	}()
	return h
}

// stopMB ends sampling and returns the peak in MB.
func (h *heapPeak) stopMB() float64 {
	close(h.stopc)
	h.done.Wait()
	h.peak = max(h.peak, readMetrics(metricHeapObjects)[0])
	return h.peak / 1e6
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timeIt runs fn and returns its wall time.
func timeIt(fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	return time.Since(t), err
}
