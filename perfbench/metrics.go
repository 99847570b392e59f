package main

import (
	"fmt"
	"math"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/service"
	"proxcensus/internal/transport"
)

// Phase statistics are taken over the measured windows in which the
// host took the least CPU time from this machine. On a shared host the
// hypervisor runs other guests on this machine's CPUs now and then
// (steal in /proc/stat). Within one payload-n16-4k run, a light window
// with 9% of its CPU time stolen read 41% higher latency and 18% more
// CPU per decision than one with none. The keepShare of windows with
// the least steal are kept, and each statistic pools the proposals of
// those windows. A change to the program slows every window alike, so
// it moves the result fully.
const keepShare = 0.25

// Latency origins.
const (
	fromDue = iota
	fromSent
)

// quietWindows marks the windows of a phase that statistics are taken
// over. A window's steal is measured from its start until its last
// proposal resolved, so it covers the whole life of what it measures.
func quietWindows(ph *phase) []bool {
	end := make([]time.Duration, len(ph.wins))
	for k, w := range ph.wins {
		end[k] = w.to
	}
	for i := range ph.reqs {
		if r := &ph.reqs[i]; r.win >= 0 && r.done > end[r.win] {
			end[r.win] = r.done
		}
	}
	steal := make([]float64, len(ph.wins))
	for k, w := range ph.wins {
		steal[k] = stealShare(ph.samples, w.from, end[k])
	}
	return leastStolen(steal, keepShare)
}

// kept returns the committed, verified proposals of a phase's kept
// windows.
func kept(ph *phase, keep []bool) []*req {
	return measuredOK(ph, func(r *req) bool { return keep[r.win] })
}

// latencyOf returns the latencies in ms of rs, from their due or send
// time.
func latencyOf(rs []*req, origin int) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		start := r.due
		if origin == fromSent {
			start = r.sent
		}
		xs[i] = ms(r.done - start)
	}
	return xs
}

// measuredOK returns a phase's committed, verified proposals inside its
// measured window that keep accepts (all when keep is nil).
func measuredOK(ph *phase, keep func(*req) bool) []*req {
	var rs []*req
	for i := range ph.reqs {
		r := &ph.reqs[i]
		if r.out == outOK && r.win >= 0 && (keep == nil || keep(r)) {
			rs = append(rs, r)
		}
	}
	return rs
}

// littleRate is closed-loop decisions per second by Little's law:
// peakWindow proposals are outstanding at every moment, so the rate is
// peakWindow over their mean latency. Unlike a count of completions in
// a short window, it does not alias with the waves in which batches
// finish.
func littleRate(rs []*req) float64 {
	var sum time.Duration
	for _, r := range rs {
		sum += r.done - r.sent
	}
	return peakWindow * float64(len(rs)) / sum.Seconds()
}

// cpuPerDecision is the process CPU per committed decision over the
// kept light-phase windows, from the counters read at their ends.
func cpuPerDecision(ph *phase, keep []bool) (float64, int) {
	var cpu time.Duration
	var decided int64
	for k, w := range ph.wins {
		if keep[k] {
			d := w.c1.since(w.c0)
			cpu += d.cpu.total()
			decided += d.decided
		}
	}
	if decided == 0 {
		return math.NaN(), 0
	}
	return ms(cpu) / float64(decided), int(decided)
}

// inWindows returns f of the samples taken inside a phase's measured
// windows.
func inWindows(ph *phase, f func(sample) float64) []float64 {
	var xs []float64
	for _, s := range ph.samples {
		if windowOf(ph.wins, s.at) >= 0 {
			xs = append(xs, f(s))
		}
	}
	return xs
}

// endToEndMetrics adds the metrics a user of the service sees.
func endToEndMetrics(res *result, setups []float64, light, peak *phase) {
	setup := newDist(setups)
	res.add("setup_s", "s", setup.q(0.5), len(setup))
	lightKeep := quietWindows(light)
	lat := newDist(latencyOf(kept(light, lightKeep), fromDue))
	res.add("light.p50_ms", "ms", lat.q(0.50), len(lat))
	res.add("light.p99_ms", "ms", lat.q(0.99), len(lat))
	res.add("light.tail_pct", "pct", supportedTail(len(lat)), len(lat))
	cpu, decided := cpuPerDecision(light, lightKeep)
	res.add("cpu_ms_per_decision", "ms", cpu, decided)
	rs := kept(peak, quietWindows(peak))
	res.add("peak_dps", "1/s", littleRate(rs), len(rs))
	plat := newDist(latencyOf(rs, fromSent))
	res.add("peak.p99_ms", "ms", plat.q(0.99), len(plat))
	res.add("peak.tail_pct", "pct", supportedTail(len(plat)), len(plat))
	rss := newDist(inWindows(peak, func(s sample) float64 { return s.rss / 1e6 }))
	res.add("mem_peak_mb", "MB", rss.q(1), len(rss))
	res.add("ok_ratio", "ratio", 1-res.tally.failRatio(), res.tally.attempted())
	res.add("fail_ratio", "ratio", res.tally.failRatio(), res.tally.attempted())

	// What each decision costs the process, counted over the whole
	// phase: bytes and write syscalls from /proc/self/io, the API's
	// included, and heap bytes allocated. In the light phase an
	// instance carries one proposal; at peak, as many as batching
	// gathered.
	for _, p := range []struct {
		prefix string
		ph     *phase
	}{{"", light}, {"peak.", peak}} {
		m := p.ph.moved
		n := int(m.decided)
		res.add(p.prefix+"bytes_written_per_decision", "B", float64(m.io.wchar)/float64(n), n)
		res.add(p.prefix+"write_syscalls_per_decision", "count", float64(m.io.syscw)/float64(n), n)
		res.add(p.prefix+"alloc_bytes_per_decision", "B", float64(m.alloc)/float64(n), n)
	}
}

// runLayerMetrics adds the per-layer metrics measured during the load
// phases themselves.
func runLayerMetrics(res *result, w workload, light, peak *phase, final service.Stats, rep transport.Report) {
	late := newDist(lateness(schedule(light)))
	res.add("loadgen.late_p99_ms", "ms", late.q(0.99), len(late))

	rs := measuredOK(light, nil)
	overhead := make([]float64, len(rs))
	server := make([]float64, len(rs))
	for i, r := range rs {
		overhead[i] = ms(r.done - r.sent - r.server)
		server[i] = ms(r.server)
	}
	od := newDist(overhead)
	res.add("api.overhead_p50_ms", "ms", od.q(0.50), len(od))
	res.add("api.overhead_p99_ms", "ms", od.q(0.99), len(od))
	res.add("service.latency_p50_ms", "ms", newDist(server).q(0.50), len(server))

	res.add("service.batch_fill.light", "count", batchFill(light), 0)
	res.add("service.batch_fill", "count", batchFill(peak), 0)
	res.add("service.active_peak", "count", float64(final.PeakActive), 0)
	depth := newDist(inWindows(peak, func(s sample) float64 { return float64(s.pending) }))
	res.add("service.pending_p99", "count", depth.q(0.99), len(depth))
	res.add("service.shed", "count", float64(final.Shed), 0)

	events := rep.Count(transport.EventDeath) + rep.Count(transport.EventStale) +
		rep.Count(transport.EventFlood) + rep.Count(transport.EventConnLost)
	res.add("transport.events", "count", float64(events), 0)
	// Frames are 2n per instance round: n node batches in, n hub
	// deliveries out. Each proposal adds one API request and one reply
	// write, which are taken out.
	inst := float64(light.moved.instances)
	frames := inst * float64(ba.MultivaluedOneShotRounds(serviceKappa)*2*w.n)
	apiWrites := float64(2 * light.moved.decided)
	syscw := float64(light.moved.io.syscw)
	res.add("transport.syscw_per_frame", "count", (syscw-apiWrites)/frames, int(frames))

	on := newDist(latencyOf(measuredOK(light, func(r *req) bool { return r.traced }), fromDue))
	off := newDist(latencyOf(measuredOK(light, func(r *req) bool { return !r.traced }), fromDue))
	res.add("trace.overhead_p50_ms", "ms", on.q(0.5)-off.q(0.5), len(on))

	for _, p := range []struct {
		suffix string
		ph     *phase
	}{{"", light}, {".peak", peak}} {
		m := p.ph.moved
		decided := float64(m.decided)
		n := int(decided)
		res.add("runtime.mallocs_per_decision"+p.suffix, "count", float64(m.mallocs)/decided, n)
		res.add("runtime.gc_per_1k_decisions"+p.suffix, "count", 1000*float64(m.numGC)/decided, n)
		res.add("runtime.gc_pause_ms"+p.suffix, "ms", float64(m.pauseNs)/1e6, int(m.numGC))
	}
}

// replayMetrics replays every layer at batch 1, as in the light phase,
// and at the batch fill the peak phase reached (suffix .peak), and
// weighs each workload shape by its share of proposals.
func replayMetrics(res *result, w workload, seed int64, tr *tracer, peakFill float64) error {
	rp, err := newReplayer(w, seed, tr)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	defer rp.close()
	peakBatch := int(math.Round(peakFill))
	if peakBatch < 1 {
		peakBatch = 1
	}
	rejected := 0
	for _, b := range []struct {
		suffix string
		batch  int
	}{{"", 1}, {".peak", peakBatch}} {
		var sum layerStats
		rounds := make([]float64, ba.MultivaluedOneShotRounds(serviceKappa))
		for _, s := range w.shapes() {
			st, err := rp.replay(s, b.batch)
			if err != nil {
				return err
			}
			wd := func(d time.Duration) time.Duration { return time.Duration(s.weight * float64(d)) }
			sum.transportInstance += wd(st.transportInstance)
			sum.encodeTagged += wd(st.encodeTagged)
			sum.decodeHub += wd(st.decodeHub)
			sum.decodeNode += wd(st.decodeNode)
			sum.decodeMsg += wd(st.decodeMsg)
			sum.admitBatch += wd(st.admitBatch)
			sum.baInstance += wd(st.baInstance)
			sum.decodeAlloc += s.weight * st.decodeAlloc
			sum.honestPerDecided += s.weight * st.honestPerDecided
			rejected += st.rejected
			for r := range rounds {
				if r < len(st.rounds) {
					rounds[r] += s.weight * ms(st.rounds[r])
				}
			}
		}
		res.add("transport.instance_ms"+b.suffix, "ms", ms(sum.transportInstance), 0)
		if b.suffix == "" {
			for r, v := range rounds {
				res.add(fmt.Sprintf("transport.round_ms.r%d", r+1), "ms", v, 0)
			}
		}
		res.add("wire.encode_tagged_us"+b.suffix, "us", us(sum.encodeTagged), 0)
		res.add("wire.decode_hub_us"+b.suffix, "us", us(sum.decodeHub), 0)
		res.add("wire.decode_node_us"+b.suffix, "us", us(sum.decodeNode), 0)
		res.add("wire.decode_msg_us"+b.suffix, "us", us(sum.decodeMsg), 0)
		res.add("wire.decode_alloc_bytes"+b.suffix, "B", sum.decodeAlloc, 0)
		res.add("validate.admit_batch_us"+b.suffix, "us", us(sum.admitBatch), 0)
		res.add("ba.instance_ms"+b.suffix, "ms", ms(sum.baInstance), 0)
		res.add("ba.honest_bytes_per_decided_byte"+b.suffix, "ratio", sum.honestPerDecided, 0)
	}
	res.add("validate.rejected", "count", float64(rejected), 0)
	return nil
}

// schedule returns the due and send times of a phase's measured
// proposals.
func schedule(ph *phase) (due, sent []time.Duration) {
	for i := range ph.reqs {
		if r := &ph.reqs[i]; r.win >= 0 {
			due = append(due, r.due)
			sent = append(sent, r.sent)
		}
	}
	return due, sent
}

// batchFill is decided proposals per instance started over a phase.
func batchFill(ph *phase) float64 {
	if ph.moved.instances == 0 {
		return 0
	}
	return float64(ph.moved.decided) / float64(ph.moved.instances)
}
