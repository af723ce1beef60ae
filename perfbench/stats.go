package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"agenp/internal/obs"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// obsMark is a snapshot of the in-process obs registry; the difference
// of two marks is the work the layers counted in between.
type obsMark struct {
	counters map[string]int64
	sums     map[string]int64
}

func markObs() obsMark {
	s := obs.Default.Snapshot()
	m := obsMark{counters: s.Counters, sums: make(map[string]int64, len(s.Histograms))}
	for name, h := range s.Histograms {
		m.sums[name] = h.SumNs
	}
	return m
}

// obsDelta is the work counted between two marks.
type obsDelta struct{ from, to obsMark }

func (d obsDelta) counter(name string) float64 {
	return float64(d.to.counters[name] - d.from.counters[name])
}

// histMs is the summed duration observed by a histogram, in ms.
func (d obsDelta) histMs(name string) float64 {
	return float64(d.to.sums[name]-d.from.sums[name]) / 1e6
}

// obsTotals sums the work of several intervals.
type obsTotals struct {
	counters map[string]float64
	histMs   map[string]float64
}

func newObsTotals() *obsTotals {
	return &obsTotals{counters: map[string]float64{}, histMs: map[string]float64{}}
}

func (t *obsTotals) add(d obsDelta) {
	for name := range d.to.counters {
		t.counters[name] += d.counter(name)
	}
	for name := range d.to.sums {
		t.histMs[name] += d.histMs(name)
	}
}

// selfCPU returns the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mix derives an independent stream seed from a run seed and a path of
// indices (splitmix64 finalizer), so each round, episode and item set
// has its own deterministic inputs.
func mix(seed uint64, path ...uint64) uint64 {
	x := seed
	for _, p := range path {
		x ^= p + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// processCPU returns the CPU time (user + system, every thread, exited
// threads included) a process has used, from its CPU-time clock.
func processCPU(pid int) (time.Duration, error) {
	var ts syscall.Timespec
	// The clock id clock_getcpuclockid(3) makes: CPUCLOCK_SCHED of the
	// whole process.
	id := uintptr((^pid)<<3 | 2)
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}
