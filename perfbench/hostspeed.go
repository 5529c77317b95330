package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The host-speed probe.
//
// On a shared host the speed of the memory system drifts by 15-30% over
// minutes as neighbouring tenants come and go, and the simulator's host
// time, dominated by scattered accesses to its model state, drifts with
// it: averaging within a run cannot remove a drift that outlasts the
// run, so two sets of runs of the same code disagree by more than any
// useful bound. An untraced run therefore runs this probe alongside the
// measured code: a fixed scattered read-modify-write kernel over a
// buffer about the size of the simulator's working set, on a thread of
// its own, which yields to the measured code after every short chunk and
// counts its operations and its CPU time. Its operations per CPU second
// over an interval, relative to its rate on the reference host, are the
// host's speed in that interval, and every timing is reported at the
// reference speed (a duration times the speed, a rate divided by it).
// The kernel is the benchmark's own code, so a change to the simulator
// moves the simulator's timings and never the probe's.
const (
	// probeBufWords is the probe's buffer: 16 MiB, the order of the
	// simulator's resident set, so the probe misses the host's private
	// caches the way the simulator does.
	probeBufWords = 2 << 20
	// probeChunk is the number of operations between counter updates
	// and yields, about 0.2 ms of work.
	probeChunk = 1 << 14
	// probeRefOpsPerSec is the probe's operations per CPU second on the
	// reference host, a 2-vCPU Sapphire Rapids KVM guest.
	probeRefOpsPerSec = 100e6
)

// hostProbe is a running probe. Its buffer is mapped outside the Go heap
// so it neither changes the collector's pacing for the simulator's
// garbage nor counts as live heap; rssMB subtracts its resident size
// from the process's peak.
type hostProbe struct {
	mem    []byte
	ops    atomic.Int64
	cpuUs  atomic.Int64 // the probe thread's CPU time, microseconds
	stop   atomic.Bool
	gate   sync.Mutex // held by the kernel while it runs a chunk
	done   chan struct{}
	runErr error
}

// probeMark is the probe's operation count and CPU time at a moment.
type probeMark struct {
	ops, cpuUs int64
}

// startHostProbe maps and touches the buffer and starts the kernel.
func startHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, 8*probeBufWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping probe buffer: %w", err)
	}
	buf := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeBufWords)
	for i := range buf {
		buf[i] = uint64(i)
	}
	hp := &hostProbe{mem: mem, done: make(chan struct{})}
	go hp.run(buf)
	return hp, nil
}

// probeSink keeps the kernel's result live.
var probeSink atomic.Uint64

// run is the kernel: scattered read-modify-writes over buf, with indices
// from an xorshift generator, until stop is set. After each chunk it
// publishes its operation count and its thread's CPU time, and yields
// its P to any goroutine of the measured code that is waiting for one.
// The probe's rate is taken over the CPU time it got, so the host's
// speed does not depend on how the CPUs were shared between the probe
// and the measured code.
func (hp *hostProbe) run(buf []uint64) {
	defer close(hp.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	x, s := uint64(0x9E3779B97F4A7C15), uint64(0)
	for !hp.stop.Load() {
		hp.gate.Lock()
		for range probeChunk {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (probeBufWords - 1)
			buf[j] += x
			s += buf[(j*7)&(probeBufWords-1)]
		}
		var ru syscall.Rusage
		err := syscall.Getrusage(rusageThread, &ru)
		hp.gate.Unlock()
		if err != nil {
			hp.runErr = fmt.Errorf("probe CPU time: %w", err)
			break
		}
		hp.ops.Add(probeChunk)
		hp.cpuUs.Store(ru.Utime.Nano()/1e3 + ru.Stime.Nano()/1e3)
		runtime.Gosched()
	}
	probeSink.Store(s)
}

// rusageThread is Linux's RUSAGE_THREAD: the calling thread's usage.
const rusageThread = 1

// close stops the kernel, waits for it to end and unmaps the buffer.
func (hp *hostProbe) close() error {
	hp.stop.Store(true)
	<-hp.done
	err := errors.Join(hp.runErr, syscall.Munmap(hp.mem))
	hp.mem = nil
	return err
}

// pause stops the kernel after its current chunk until resume, so a
// short timed operation runs without it. The probe's rate is taken over
// its CPU time, so a pause does not change the host speed it reports.
func (hp *hostProbe) pause() { hp.gate.Lock() }

// resume restarts the kernel after pause.
func (hp *hostProbe) resume() { hp.gate.Unlock() }

// mark reads the probe's operation count and CPU time. The probe
// publishes the count first, so a mark may pair a count with the CPU
// time of the chunk before: an error of one chunk.
func (hp *hostProbe) mark() probeMark {
	return probeMark{cpuUs: hp.cpuUs.Load(), ops: hp.ops.Load()}
}

// speed is the host's speed between two marks relative to the reference
// host: below 1 when the host ran slower.
func speed(a, b probeMark) (float64, error) {
	if b.cpuUs <= a.cpuUs || b.ops <= a.ops {
		return 0, errors.New("host-speed probe made no progress")
	}
	return float64(b.ops-a.ops) / (float64(b.cpuUs-a.cpuUs) / 1e6) / probeRefOpsPerSec, nil
}

// rssMB is the process's peak resident set without the probe's buffer.
func (hp *hostProbe) rssMB() (float64, error) {
	rss, err := peakRSSMB()
	return rss - float64(8*probeBufWords)/(1<<20), err
}
