package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"proxcensus/internal/service"
)

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(q, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is the 1-based rank of the q-quantile in n samples. The
// tolerance keeps a product such as 0.999×10000 from rounding up past
// an exact rank.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile for it to
// be reported as a tail.
const minBeyond = 10

// supportedTail returns the highest percentile in tailLadder that has
// at least minBeyond samples above its nearest rank in a sample of
// size n, or 0 when not even the median has.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p/100, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// dist is a sorted sample of one timing, in the unit it is reported in.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) q(p float64) float64 { return quantile(d, p) }

// lateness returns how far behind its schedule an open-loop generator
// sent each proposal: sent minus due, never negative (an early send is
// on time).
func lateness(due, sent []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if l := sent[i] - due[i]; l > 0 {
			out[i] = ms(l)
		}
	}
	return out
}

// dueOffset is the send time of open-loop proposal i at the given rate,
// measured from the phase start. It is computed from i, never from the
// previous send, so a stall delays no later due time.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / rate)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procIO is the subset of /proc/self/io the benchmark reads.
type procIO struct {
	syscw, wchar int64
}

// parseProcIO parses the "key: value" lines of /proc/self/io.
func parseProcIO(b []byte) (procIO, error) {
	var io procIO
	seen := 0
	for _, line := range bytes.Split(b, []byte("\n")) {
		k, v, ok := strings.Cut(string(line), ":")
		if !ok {
			continue
		}
		var dst *int64
		switch k {
		case "syscw":
			dst = &io.syscw
		case "wchar":
			dst = &io.wchar
		default:
			continue
		}
		x, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("parse /proc/self/io %s: %w", k, err)
		}
		*dst = x
		seen++
	}
	if seen != 2 {
		return procIO{}, fmt.Errorf("parse /proc/self/io: want syscw and wchar, found %d of them", seen)
	}
	return io, nil
}

func (a procIO) sub(b procIO) procIO {
	return procIO{syscw: a.syscw - b.syscw, wchar: a.wchar - b.wchar}
}

// hostCPU is the machine's CPU time over all its CPUs, in clock ticks
// since boot, from the first line of /proc/stat. steal is the time the
// hypervisor ran other guests while this machine's CPUs were ready to
// run; total is every kind of time together.
type hostCPU struct {
	steal, total int64
}

// parseProcStat parses the "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal. The guest columns that
// may follow are already counted in user and nice.
func parseProcStat(b []byte) (hostCPU, error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("parse /proc/stat: want a cpu line with 8 times, got %q", line)
	}
	var h hostCPU
	for i, v := range f[1:9] {
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		h.total += x
		if i == 7 {
			h.steal = x
		}
	}
	return h, nil
}

func (a hostCPU) sub(b hostCPU) hostCPU {
	return hostCPU{steal: a.steal - b.steal, total: a.total - b.total}
}

// stealShare is the share of the machine's CPU time stolen between
// offsets a and b, from the samples that enclose them. xs is in time
// order; a span with no ticks has no steal.
func stealShare(xs []sample, a, b time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := sort.Search(len(xs), func(i int) bool { return xs[i].at > a }) - 1
	if i < 0 {
		i = 0
	}
	j := sort.Search(len(xs), func(j int) bool { return xs[j].at >= b })
	if j == len(xs) {
		j = len(xs) - 1
	}
	d := xs[j].host.sub(xs[i].host)
	if d.total <= 0 {
		return 0
	}
	return float64(d.steal) / float64(d.total)
}

// leastStolen marks the windows a statistic is taken over: the share
// keep of them with the least steal, and every window that ties with
// the last one kept.
func leastStolen(steal []float64, keep float64) []bool {
	out := make([]bool, len(steal))
	if len(steal) == 0 {
		return out
	}
	n := int(math.Ceil(keep*float64(len(steal)) - 1e-9))
	if n < 1 {
		n = 1
	}
	cut := newDist(steal)[n-1]
	for i, s := range steal {
		out[i] = s <= cut
	}
	return out
}

// cpuTime is process user plus system CPU, as getrusage reports it.
type cpuTime struct {
	user, sys time.Duration
}

func (a cpuTime) sub(b cpuTime) cpuTime {
	return cpuTime{user: a.user - b.user, sys: a.sys - b.sys}
}

func (a cpuTime) total() time.Duration { return a.user + a.sys }

// outcome classifies how one attempted proposal resolved.
type outcome int

const (
	outOK outcome = iota
	outShed
	outErr
	outUncommitted
	outWrongBytes
	outUnresolved
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "shed", "err", "uncommitted", "wrong_bytes", "unresolved"}

func (o outcome) String() string { return outcomeNames[o] }

// classify judges one API result against the proposal it answers. A
// payload decision counts only if it echoes the proposed bytes; a
// digest decision only if it committed.
func classify(res service.Result, payload []byte) outcome {
	switch {
	case res.Busy:
		return outShed
	case !res.Decided:
		return outErr
	case !res.Committed:
		return outUncommitted
	case payload != nil && !bytes.Equal(res.Payload, payload):
		return outWrongBytes
	}
	return outOK
}

// tally counts outcomes over a set of proposals.
type tally [numOutcomes]int

func (t *tally) add(o tally) {
	for i := range t {
		t[i] += o[i]
	}
}

func (t tally) attempted() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

func (t tally) failed() int { return t.attempted() - t[outOK] }

// failRatio is every failed proposal over every attempted one; zero
// attempts fail outright.
func (t tally) failRatio() float64 {
	if t.attempted() == 0 {
		return 1
	}
	return float64(t.failed()) / float64(t.attempted())
}
