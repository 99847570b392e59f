package main

import (
	"encoding/binary"
	"math"
	"time"
)

// workload is one traffic mix against one service shape. Every field
// the service takes that is not listed here is its default: κ=4,
// batch 8, MaxActive 64, MaxPending 256.
type workload struct {
	name string
	// n and t are the party count and fault tolerance.
	n, t int
	// payloadShare is the share of proposals sent as proposeb payloads;
	// the rest are 8-byte propose values.
	payloadShare float64
	// size is the byte length of each payload proposal.
	size int
	// rate is the open-loop light-phase rate in proposals per second:
	// below the batching knee, so instances mostly carry one proposal,
	// and at about a quarter of a 2-core machine's CPU, so a co-tenant
	// taking CPU does not push the phase into queueing.
	rate float64
	// lightShare is the share of the run spent in the light phase; the
	// rest is the closed-loop peak phase. Workloads with a low light
	// rate get a larger share, so the light phase rests on enough
	// decisions.
	lightShare float64
}

// peakWindow is the closed-loop peak phase's outstanding proposals. It
// equals service.DefaultMaxPending, so admission never sheds there.
const peakWindow = 256

// apiConns is how many API connections carry the load.
const apiConns = 2

// lightWarmup is the start of the light phase left out of its numbers,
// while connections, goroutine stacks and the heap settle.
const lightWarmup = time.Second

// peakEdge is left out of the peak phase's numbers at either end: at
// the start while the workers join and batches grow, at the end so the
// proposals sent last still complete under full load.
const peakEdge = 1500 * time.Millisecond

var workloads = []workload{
	// Latency is 7 mux round barriers of small frames: stresses the
	// transport round trip, service scheduling and the API, and hardly
	// touches the wire copy paths, the payload tally or validation.
	{name: "digest-n4", n: 4, t: 1, payloadShare: 0, rate: 250, lightShare: 0.3},
	// The copy-dominated profile: rounds 2-3 move n²×4 KiB through the
	// hub, and at peak the batches and the ba tallies grow with them.
	{name: "payload-n16-4k", n: 16, t: 5, payloadShare: 1, size: 4096, rate: 30, lightShare: 0.45},
	// The same service and transport used differently: kind switches cut
	// batches short through the carry path, and digest instances at
	// n=16 add per-message hub cost with small frames.
	{name: "mixed-n16-1k", n: 16, t: 5, payloadShare: 0.5, size: 1024, rate: 50, lightShare: 0.5},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// proposal is one generated input: a payload, or a digest value when
// payload is nil.
type proposal struct {
	payload []byte
	value   int
}

// gen derives every proposal of a run from the seed alone, so the same
// seed gives the same inputs whatever order the load issues them in.
type gen struct {
	w    workload
	base uint64
}

func newGen(w workload, seed int64) gen {
	return gen{w: w, base: splitmix(uint64(seed))}
}

// kindBlock is how many consecutive proposals share out the kinds
// exactly: round(payloadShare×kindBlock) of each block are payloads, in
// an order the seed shuffles. Kind switches stay random, while any
// stretch of the run holds payloads at payloadShare, give or take one
// block. With a free draw per proposal, the bytes written per decision
// of mixed-n16-1k's light phase moved by 4% from seed to seed.
const kindBlock = 8

// proposal returns the k-th input of the run.
func (g gen) proposal(k uint64) proposal {
	h := splitmix(g.base ^ splitmix(k))
	if !g.isPayload(k) {
		return proposal{value: int(h >> 2)}
	}
	b := make([]byte, g.w.size)
	x := h
	for i := 0; i < len(b); i += 8 {
		x = splitmix(x)
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], x)
		copy(b[i:], word[:])
	}
	return proposal{payload: b}
}

// isPayload tells whether the k-th proposal is a payload: whether the
// seeded rank of k within its block falls among the block's payloads.
func (g gen) isPayload(k uint64) bool {
	payloads := int(math.Round(g.w.payloadShare * kindBlock))
	first := k - k%kindBlock
	rank := 0
	for j := first; j < first+kindBlock; j++ {
		if g.kindKey(j) < g.kindKey(k) {
			rank++
		}
	}
	return rank < payloads
}

// kindKey orders the proposals of a block; keys of distinct indexes
// differ, because splitmix is a bijection.
func (g gen) kindKey(k uint64) uint64 { return splitmix(g.base ^ splitmix(k) ^ 0x6b696e64) }

// splitmix is the SplitMix64 finalizer: a fast, well-mixed hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
