package main

import (
	"fmt"
	"math/rand"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe is a fixed piece of CPU and memory work that belongs to the
// benchmark, not to the program under test: a walk of one random cycle
// through 32 MB, well past the last-level cache, and a sort of 32k
// floats. The reference host is a shared VM whose cores slow by up to
// 2x for a minute or more at a time, in process CPU time as well as
// wall time, so every CPU-bound latency moves with it. Timing the probe
// between rounds measures that speed on the same cores a run's traffic
// used; the .adj metrics divide it out (see hostFactor).
//
// The probe's memory is mapped outside the Go heap, so it neither adds
// to the live heap the program's garbage collector paces itself by nor
// gets scanned by it.
type hostProbe struct {
	mem  []byte
	next []uint32 // next[i] is the slot after i on the cycle
	keys []float64
	buf  []float64
	at   uint32
}

const (
	probeSlots = 1 << 23
	probeSteps = 1 << 16
	probeKeys  = 1 << 15
	// probeReps is how many times a round runs the probe; the round
	// keeps the fastest, which a garbage-collector cycle or an ingest
	// drain on the other core rarely reaches, while a slow core slows
	// every repetition.
	probeReps = 5
	// probeRefMS is the probe's median time on the reference host when
	// it is quiet; an .adj metric reads as the raw metric would there.
	probeRefMS = 15.0
)

func newHostProbe() (*hostProbe, error) {
	size := probeSlots*4 + 2*probeKeys*8
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host probe's memory: %w", err)
	}
	p := &hostProbe{
		mem:  mem,
		next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeSlots),
		keys: unsafe.Slice((*float64)(unsafe.Pointer(&mem[probeSlots*4])), probeKeys),
		buf:  unsafe.Slice((*float64)(unsafe.Pointer(&mem[probeSlots*4+probeKeys*8])), probeKeys),
	}
	// The probe is the same on every run: its inputs come from a fixed
	// seed, not the workload's. Sattolo's shuffle makes next one cycle
	// through every slot.
	rng := rand.New(rand.NewSource(1))
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	for i := probeSlots - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	for i := range p.keys {
		p.keys[i] = rng.Float64()
	}
	p.run() // one untimed run, so the first timed one starts warm
	return p, nil
}

// run does the probe's work probeReps times and returns the fastest.
func (p *hostProbe) run() time.Duration {
	best := p.once()
	for i := 1; i < probeReps; i++ {
		best = min(best, p.once())
	}
	return best
}

// once does the probe's work once and returns how long it took.
func (p *hostProbe) once() time.Duration {
	start := time.Now()
	j := p.at
	for i := 0; i < probeSteps; i++ {
		j = p.next[j]
	}
	p.at = j
	copy(p.buf, p.keys)
	sort.Float64s(p.buf)
	return time.Since(start)
}

func (p *hostProbe) close() { syscall.Munmap(p.mem) }

// hostFactor is how much slower than the quiet reference host a run's
// cores were: the median of its rounds' probe times over probeRefMS.
// The probe runs between rounds, when no statement is in flight; on
// ingest_mix the producer keeps sending.
func hostFactor(t *traffic) float64 {
	var pr []float64
	for _, r := range t.rounds {
		pr = append(pr, ms(r.probe))
	}
	return median(pr) / probeRefMS
}
