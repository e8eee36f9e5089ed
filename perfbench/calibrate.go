package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
)

// The shared host this benchmark runs on changes speed by tens of
// percent over minutes — CPU time as well as wall time, with or
// without hypervisor steal — and every timing of a run moves together.
// Each run therefore also times a fixed calibration kernel that uses
// none of the repository's code, and the end-to-end timings are
// reported as they would read on a reference machine where the kernel
// takes calibrationRef: timing × calibrationRef / kernel time. A
// change to the program moves the timing and not the kernel; a change
// of host speed moves both.
const calibrationRef = 0.15 // s of CPU

// calibrationRounds is how many times a run times the kernel, spread
// over the run; the median is used.
const calibrationRounds = 2

var calibrationSink int

// calibrate runs the kernel once — map inserts of small allocations,
// a sort, hashing — and returns the CPU seconds it took.
func calibrate() float64 {
	runtime.GC()
	c0 := selfCPU()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint64][]byte)
	for i := 0; i < 300_000; i++ {
		b := make([]byte, 48)
		b[0] = byte(next())
		m[next()%150_000] = b
	}
	vals := make([]float64, 500_000)
	for i := range vals {
		vals[i] = float64(next())
	}
	sort.Float64s(vals)
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	sum := sha256.Sum256(buf)
	calibrationSink = len(m) + int(vals[len(vals)/2]) + int(sum[0])
	return selfCPU() - c0
}

// calibrated scales a timing to the reference machine.
func (r *report) calibrated(v float64) float64 {
	return v * calibrationRef / median(r.calibration)
}
