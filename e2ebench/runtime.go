package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// heapSampler collects the live heap that each finished GC cycle
// measured, over the windows in which it is switched on. It polls
// runtime/metrics, which does not stop the world, often enough to see
// every cycle of the workloads here.
type heapSampler struct {
	on   atomic.Bool
	mu   sync.Mutex
	live []float64 // MiB, one value per GC cycle seen while on
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		var last uint64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				if cycles := s[0].Value.Uint64(); cycles != last {
					last = cycles
					if h.on.Load() {
						h.mu.Lock()
						h.live = append(h.live, float64(s[1].Value.Uint64())/(1<<20))
						h.mu.Unlock()
					}
				}
			}
		}
	}()
	return h
}

// record switches collection on or off.
func (h *heapSampler) record(on bool) { h.on.Store(on) }

// take returns the values collected so far and starts afresh.
func (h *heapSampler) take() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.live
	h.live = nil
	return v
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// rtStats is a snapshot of the runtime counters the per-layer report uses.
type rtStats struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return rtStats{allocBytes: v[0], gcCycles: v[1], gcCPU: v[2], totalCPU: v[3]}
}

// sub returns the change from b to a.
func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// quantile returns the nearest-rank q-quantile of vs (vs is sorted in place).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// readSteal returns the time, summed over this machine's CPUs, that the
// host has given them to other guests since boot: the steal column of
// /proc/stat, in clock ticks of 10 ms. It returns 0 where that is unknown.
func readSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// mark is a loop's wall time and the machine's steal at a chunk boundary.
type mark struct {
	at    time.Time
	steal time.Duration
}

func markNow() mark { return mark{time.Now(), readSteal()} }

// stealShare is the share of the ncpu CPUs' time from a to b that the host
// gave to other guests.
func stealShare(a, b mark, ncpu int) float64 {
	span := b.at.Sub(a.at)
	if span <= 0 {
		return 0
	}
	return min(max(float64(b.steal-a.steal)/float64(ncpu)/float64(span), 0), 1)
}
