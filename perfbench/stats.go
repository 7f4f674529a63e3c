package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile of ds (0 when ds is
// empty).  The benchmark keeps every latency sample rather than a bucketed
// histogram, so a reported percentile is one measured value.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(float64(len(s))*p/100 + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// overWindows is the median, over k consecutive groups of n samples of
// near-equal size, of f applied to each group's index range [lo, hi).
// With fewer than k samples every sample is a group of its own.
func overWindows(n, k int, f func(lo, hi int) float64) float64 {
	k = max(min(k, n), 1)
	vals := make([]float64, 0, k)
	for g := 0; g < k; g++ {
		lo, hi := g*n/k, (g+1)*n/k
		if hi > lo {
			vals = append(vals, f(lo, hi))
		}
	}
	sort.Float64s(vals)
	if len(vals)%2 == 1 {
		return vals[len(vals)/2]
	}
	return (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// answerSig identifies an answer table: its row count and a hash of its
// rows in the engine's canonical (sorted) order.
type answerSig struct {
	rows int
	hash uint64
}

func sigOf(rows [][]string) answerSig {
	h := fnv.New64a()
	for _, r := range rows {
		for _, c := range r {
			h.Write([]byte(c))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{0x1e})
	}
	return answerSig{rows: len(rows), hash: h.Sum64()}
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// memDelta brackets a call with runtime.ReadMemStats, which flushes every
// per-P allocation cache, so the deltas count exactly the heap objects
// and bytes allocated in between (by any goroutine — the traced replay is
// single-threaded).
type memDelta struct{ before runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() (allocs, bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc
}

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
