package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"syscall"
	"unsafe"
)

// The host-time metrics are rescaled to a nominal host speed by fixed
// reference kernels that run right after each measured stretch of work.
// On a shared machine the CPU time of the same work drifts by up to a
// factor of two over minutes, with what the other guests of the physical
// host run; CPU time leaves out waiting for a CPU but not a slower CPU.
// The kernels do the kind of work the simulator's inner loops do (an event
// heap, random draws, hash-table updates, small sorts), so a slow stretch slows
// them and the program alike, and the ratio of the CPU times holds still
// while each of them moves.
//
// There are two kernels, because a slower host does not slow all code
// alike. One counts into a table that stays in the CPU's private caches
// and slows less than the simulator; the other counts into a table of a
// few MB that misses them and slows more. Measured on writes-2drive across
// a twofold slowdown of a 2-vCPU Xeon virtual machine, with Go maps for
// tables, the program's CPU time over the first kernel's moved +17%, over
// the second's -5%, and over the two together about 1%.
//
// The kernels' code is part of the benchmark, not of the program, so a
// change to the simulator moves the program's CPU time and leaves the
// kernels' alone.

// refNominalSeconds is the CPU time one reference run is taken to cost on
// the nominal host. It is only a scale: a rescaled time reads as CPU
// seconds on a host where the reference run takes this long. On a 2-vCPU
// Intel Xeon virtual machine runs took 140 to 190 ms, with the load of
// the host.
const refNominalSeconds = 0.1

// Each kernel pushes refEvents events through a heap that keeps
// refHeapLen of them queued, and counts the ids of the events it pops.
const (
	refEvents  = 300_000
	refHeapLen = 512
)

type refEvent struct {
	t  float64
	id int32
}

// refSlot is one entry of a kernel's count table: an id plus one (0 marks
// an empty slot) and its count.
type refSlot struct {
	key, count int32
}

// refKernel holds one reference kernel's state. The count table lives
// outside the Go heap, in memory mapped from the system, and the rest is
// allocated once: a reference run allocates nothing, and the kernels'
// memory neither counts in the live heap, which sets when the garbage
// collector runs the program's next cycle, nor varies in the resident
// memory rss_mb reports.
type refKernel struct {
	ids   int // distinct ids counted
	rng   *rand.Rand
	heap  []refEvent // a binary min-heap on t
	table []refSlot  // open addressing, a power of two long
	shift uint       // 32 - log2(len(table))
	batch []float64
}

// newRefKernel builds a kernel counting ids distinct ids in a table of
// slots entries, a power of two.
func newRefKernel(ids, slots int) (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, slots*int(unsafe.Sizeof(refSlot{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map a reference table: %w", err)
	}
	return &refKernel{
		ids:   ids,
		rng:   rand.New(rand.NewSource(1)),
		heap:  make([]refEvent, 0, refHeapLen+1),
		table: unsafe.Slice((*refSlot)(unsafe.Pointer(&mem[0])), slots),
		shift: uint(32 - bits.TrailingZeros(uint(slots))),
		batch: make([]float64, 0, 64),
	}, nil
}

// count adds one to id's count and returns the new count.
func (k *refKernel) count(id int32) int32 {
	mask := uint32(len(k.table) - 1)
	for i := (uint32(id) * 2654435761) >> k.shift; ; i = (i + 1) & mask {
		sl := &k.table[i]
		if sl.key == id+1 {
			sl.count++
			return sl.count
		}
		if sl.key == 0 {
			*sl = refSlot{key: id + 1, count: 1}
			return 1
		}
	}
}

// references are the kernels referenceRun runs, built by initReferences:
// one whose 128 KB table stays in the CPU's private caches and one whose
// 4 MB table does not.
var references []*refKernel

// refSink keeps the compiler from removing the kernels' work.
var refSink uint64

// run does one reference run's fixed work.
func (k *refKernel) run() {
	k.rng.Seed(1)
	k.heap = k.heap[:0]
	clear(k.table)
	k.batch = k.batch[:0]
	var sum uint64
	for i := 0; i < refEvents; i++ {
		k.push(refEvent{t: k.rng.Float64() * 1e6, id: int32(k.rng.Intn(k.ids))})
		if len(k.heap) > refHeapLen {
			e := k.pop()
			k.count(e.id)
			k.batch = append(k.batch, e.t)
		}
		if len(k.batch) == cap(k.batch) {
			sort.Float64s(k.batch)
			sum += uint64(k.batch[0]) + uint64(k.count(int32(k.batch[len(k.batch)-1])%int32(k.ids)))
			k.batch = k.batch[:0]
		}
	}
	refSink += sum
}

func (k *refKernel) push(e refEvent) {
	h := append(k.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() refEvent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l].t < h[m].t {
			m = l
		}
		if r := l + 1; r < n && h[r].t < h[m].t {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.heap = h
	return top
}

// initReferences builds the reference kernels and returns the resident
// memory their tables take once a run has touched every page, which rss_mb
// leaves out. The tables stay mapped until the process exits.
func initReferences() (tableMB float64, err error) {
	references = nil
	for _, sz := range []struct{ ids, slots int }{{8192, 1 << 14}, {262144, 1 << 19}} {
		k, err := newRefKernel(sz.ids, sz.slots)
		if err != nil {
			return 0, err
		}
		references = append(references, k)
		tableMB += float64(len(k.table)) * float64(unsafe.Sizeof(refSlot{})) / (1 << 20)
	}
	return tableMB, nil
}

// referenceRun runs every reference kernel once and returns the factor
// that rescales CPU seconds measured just before it to nominal-host
// seconds.
func referenceRun() float64 {
	c0 := processCPUSeconds()
	for _, k := range references {
		k.run()
	}
	return refNominalSeconds / (processCPUSeconds() - c0)
}
