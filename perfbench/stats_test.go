package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"proxcensus/internal/service"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
	// p99 of 1000 samples is the 990th: ten samples lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // the median of 19 has 9 beyond it
		{20, 50},   // and of 20 has 10
		{199, 90},  // p95 of 199 is rank 190: 9 beyond
		{200, 95},  // p95 of 200 is rank 190: 10 beyond
		{999, 98},  // p99 of 999 is rank 990: 9 beyond
		{1000, 99}, // p99 of 1000 is rank 990: 10 beyond
		{9999, 99},
		{10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestDueAndLateness(t *testing.T) {
	// Due times come from the index and the rate alone.
	if got := dueOffset(0, 40); got != 0 {
		t.Errorf("dueOffset(0) = %s", got)
	}
	if got := dueOffset(3, 40); got != 75*time.Millisecond {
		t.Errorf("dueOffset(3, 40/s) = %s, want 75ms", got)
	}
	if got := dueOffset(1000, 500); got != 2*time.Second {
		t.Errorf("dueOffset(1000, 500/s) = %s, want 2s", got)
	}
	due := []time.Duration{0, 25 * time.Millisecond, 50 * time.Millisecond}
	sent := []time.Duration{time.Millisecond, 24 * time.Millisecond, 53 * time.Millisecond}
	got := lateness(due, sent)
	want := []float64{1, 0, 3} // an early send is on time
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lateness[%d] = %g ms, want %g", i, got[i], want[i])
		}
	}
}

func TestParseProcIO(t *testing.T) {
	in := []byte("rchar: 5\nwchar: 1234567\nsyscr: 9\nsyscw: 4242\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n")
	io, err := parseProcIO(in)
	if err != nil {
		t.Fatal(err)
	}
	if io.syscw != 4242 || io.wchar != 1234567 {
		t.Fatalf("parsed %+v", io)
	}
	later := procIO{syscw: 5000, wchar: 2000000}
	if d := later.sub(io); d.syscw != 758 || d.wchar != 765433 {
		t.Errorf("delta %+v", d)
	}
	if _, err := parseProcIO([]byte("rchar: 5\nwchar: 7\n")); err == nil {
		t.Error("missing syscw parsed without error")
	}
	if _, err := parseProcIO([]byte("wchar: x\nsyscw: 1\n")); err == nil {
		t.Error("non-numeric wchar parsed without error")
	}
}

func TestCPUTimeDelta(t *testing.T) {
	a := cpuTime{user: 3 * time.Second, sys: time.Second}
	b := cpuTime{user: 1500 * time.Millisecond, sys: 250 * time.Millisecond}
	d := a.sub(b)
	if d.user != 1500*time.Millisecond || d.sys != 750*time.Millisecond || d.total() != 2250*time.Millisecond {
		t.Errorf("delta %+v total %s", d, d.total())
	}
}

func TestClassify(t *testing.T) {
	payload := []byte("proposed bytes")
	for _, c := range []struct {
		name    string
		res     service.Result
		payload []byte
		want    outcome
	}{
		{"digest committed", service.Result{Decided: true, Committed: true}, nil, outOK},
		{"payload echoed", service.Result{Decided: true, Committed: true, Payload: bytes.Clone(payload)}, payload, outOK},
		{"shed", service.Result{Busy: true}, payload, outShed},
		{"err line", service.Result{Err: "boom"}, nil, outErr},
		{"connection lost", service.Result{Err: "connection lost"}, payload, outErr},
		{"digest uncommitted", service.Result{Decided: true}, nil, outUncommitted},
		{"payload uncommitted", service.Result{Decided: true}, payload, outUncommitted},
		{"other bytes", service.Result{Decided: true, Committed: true, Payload: []byte("proposed bytez")}, payload, outWrongBytes},
		{"no bytes", service.Result{Decided: true, Committed: true}, payload, outWrongBytes},
	} {
		if got := classify(c.res, c.payload); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestTally(t *testing.T) {
	var a, b tally
	a[outOK], a[outShed] = 7, 1
	b[outOK], b[outUnresolved], b[outWrongBytes] = 10, 1, 1
	a.add(b)
	if a.attempted() != 20 || a.failed() != 3 {
		t.Fatalf("attempted %d failed %d, want 20 and 3", a.attempted(), a.failed())
	}
	if got := a.failRatio(); got != 0.15 {
		t.Errorf("failRatio = %g, want 0.15", got)
	}
	var none tally
	if none.failRatio() != 1 {
		t.Error("a run that attempted nothing must fail")
	}
}

func TestGenerator(t *testing.T) {
	w, ok := findWorkload("mixed-n16-1k")
	if !ok {
		t.Fatal("mixed-n16-1k missing")
	}
	a, b, c := newGen(w, 7), newGen(w, 7), newGen(w, 8)
	payloads := 0
	const k = 2000
	for i := uint64(0); i < k; i++ {
		pa, pb := a.proposal(i), b.proposal(i)
		if !bytes.Equal(pa.payload, pb.payload) || pa.value != pb.value {
			t.Fatalf("proposal %d differs under one seed", i)
		}
		if pa.payload != nil {
			payloads++
			if len(pa.payload) != w.size {
				t.Fatalf("payload %d has %d bytes, want %d", i, len(pa.payload), w.size)
			}
		} else if pa.value < 0 {
			t.Fatalf("digest value %d is negative", pa.value)
		}
	}
	if payloads != k/2 {
		t.Errorf("%d of %d proposals are payloads, want half", payloads, k)
	}
	// Every block holds half payloads, and the order within blocks
	// differs between them.
	orders := make(map[[kindBlock]bool]bool)
	for first := uint64(0); first < k; first += kindBlock {
		var order [kindBlock]bool
		n := 0
		for i := range order {
			order[i] = a.proposal(first+uint64(i)).payload != nil
			if order[i] {
				n++
			}
		}
		if n != kindBlock/2 {
			t.Fatalf("block at %d holds %d payloads, want %d", first, n, kindBlock/2)
		}
		orders[order] = true
	}
	if len(orders) < 20 {
		t.Errorf("only %d distinct kind orders in %d blocks", len(orders), k/kindBlock)
	}
	same := 0
	for i := uint64(0); i < 100; i++ {
		pa, pc := a.proposal(i), c.proposal(i)
		if bytes.Equal(pa.payload, pc.payload) && pa.value == pc.value {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d of 100 proposals equal under seeds 7 and 8", same)
	}
	d, _ := findWorkload("digest-n4")
	pw, _ := findWorkload("payload-n16-4k")
	for i := uint64(0); i < 64; i++ {
		if p := newGen(d, 1).proposal(i); p.payload != nil {
			t.Fatal("digest-n4 generated a payload")
		}
		if p := newGen(pw, 1).proposal(i); p.payload == nil {
			t.Fatal("payload-n16-4k generated a digest value")
		}
	}
}

func TestWindows(t *testing.T) {
	ws := cut(time.Second, 7*time.Second)
	if len(ws) != 6 || ws[0].from != time.Second || ws[5].to != 7*time.Second || ws[2].to != ws[3].from {
		t.Fatalf("cut(1 s, 7 s) = %+v, want 6 windows of 1 s", ws)
	}
	if n := len(cut(0, 300*time.Millisecond)); n != 1 {
		t.Errorf("a span shorter than a window has %d windows, want 1", n)
	}
	for _, c := range []struct {
		t    time.Duration
		want int
	}{
		{999 * time.Millisecond, -1}, // warm-up
		{time.Second, 0},
		{1999 * time.Millisecond, 0},
		{2 * time.Second, 1},
		{6999 * time.Millisecond, 5},
		{7 * time.Second, -1}, // past the span
	} {
		if got := windowOf(ws, c.t); got != c.want {
			t.Errorf("windowOf(%s) = %d, want %d", c.t, got, c.want)
		}
	}
	if got := windowOf(nil, time.Second); got != -1 {
		t.Errorf("windowOf(no windows) = %d, want -1", got)
	}

	// Window 2 is slow because the host stole CPU during it; it is left
	// out, and so are failed proposals and the warm-up.
	ph := &phase{wins: cut(time.Second, 7*time.Second)}
	for k, w := range ph.wins {
		lat := 10 * time.Millisecond
		if k == 2 {
			lat = time.Second
		}
		for i := 0; i < 4; i++ {
			due := w.from + time.Duration(i)*time.Millisecond
			ph.reqs = append(ph.reqs, req{due: due, sent: due, done: due + lat, win: k})
		}
	}
	ph.reqs = append(ph.reqs,
		req{due: 0, done: 5 * time.Second, win: -1},
		req{due: 3 * time.Second, done: 9 * time.Second, out: outUnresolved, win: 2})
	// Samples every 500 ms; 100 ticks pass between samples, 40 of them
	// stolen while window 2 runs. Windows 1, 3 and 5 steal a little.
	var host hostCPU
	for at := time.Duration(0); at <= 9*time.Second; at += 500 * time.Millisecond {
		ph.samples = append(ph.samples, sample{at: at, host: host})
		host.total += 100
		switch {
		case at >= 3*time.Second && at < 4*time.Second:
			host.steal += 40
		case at == 2*time.Second || at == 4*time.Second || at == 6*time.Second:
			host.steal++
		}
	}
	keep := quietWindows(ph)
	// A quarter (keepShare) of 6 rounds up to 2 windows: 0 and 4 steal nothing.
	want := []bool{true, false, false, false, true, false}
	for k := range want {
		if keep[k] != want[k] {
			t.Fatalf("kept windows %v, want %v", keep, want)
		}
	}
	if n := len(kept(ph, keep)); n != 8 {
		t.Errorf("%d kept proposals, want 8", n)
	}
	if n := len(measuredOK(ph, nil)); n != 4*len(ph.wins) {
		t.Errorf("%d measured proposals, want %d", n, 4*len(ph.wins))
	}
	if n := len(inWindows(ph, func(s sample) float64 { return 0 })); n != 12 {
		t.Errorf("%d samples inside the windows, want 12", n)
	}
}

func TestLeastStolen(t *testing.T) {
	got := leastStolen([]float64{0.3, 0.01, 0, 0.2, 0.01, 0.5, 0.4, 0.02}, 0.25)
	want := []bool{false, true, true, false, true, false, false, false} // 2 kept, and a tie
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("leastStolen = %v, want %v", got, want)
		}
	}
	one := leastStolen([]float64{0.1, 0.05, 0.2}, 0.25)
	if one[0] || !one[1] || one[2] {
		t.Errorf("leastStolen of 3 = %v, want only the middle", one)
	}
	if len(leastStolen(nil, 0.25)) != 0 {
		t.Error("no windows, nothing kept")
	}
}

func TestParseProcStat(t *testing.T) {
	in := []byte("cpu  812971 5 314620 1030280 343 0 104724 83642 7 9\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	h, err := parseProcStat(in)
	if err != nil {
		t.Fatal(err)
	}
	if h.steal != 83642 || h.total != 812971+5+314620+1030280+343+104724+83642 {
		t.Errorf("parsed %+v", h)
	}
	if d := (hostCPU{steal: 90, total: 1000}).sub(hostCPU{steal: 40, total: 600}); d.steal != 50 || d.total != 400 {
		t.Errorf("delta %+v", d)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "intr 1 2 3 4 5 6 7 8 9\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) parsed", bad)
		}
	}

	// Steal between two offsets comes from the samples enclosing them.
	xs := []sample{
		{at: 0, host: hostCPU{steal: 0, total: 0}},
		{at: time.Second, host: hostCPU{steal: 10, total: 200}},
		{at: 2 * time.Second, host: hostCPU{steal: 10, total: 400}},
	}
	if got := stealShare(xs, 1500*time.Millisecond, 2*time.Second); got != 0 {
		t.Errorf("steal in [1.5 s, 2 s] = %g, want 0 (from the samples at 1 s and 2 s)", got)
	}
	if got := stealShare(xs, 0, 1500*time.Millisecond); got != 10.0/400 {
		t.Errorf("steal in [0, 1.5 s] = %g, want %g", got, 10.0/400)
	}
	if got := stealShare(nil, 0, time.Second); got != 0 {
		t.Errorf("steal with no samples = %g", got)
	}
}

func TestLittleRateAndCPU(t *testing.T) {
	// peakWindow outstanding proposals that each take half a second
	// complete at 2×peakWindow per second.
	rs := []*req{
		{sent: 0, done: 500 * time.Millisecond},
		{sent: time.Second, done: 1500 * time.Millisecond},
	}
	if got := littleRate(rs); got != 2*peakWindow {
		t.Errorf("littleRate = %g, want %d", got, 2*peakWindow)
	}

	// CPU per decision pools the kept windows between the counters at
	// their ends.
	mark := func(cpu time.Duration, decided int64) counters {
		return counters{cpu: cpuTime{user: cpu}, stats: service.Stats{Decided: decided}}
	}
	ph := &phase{wins: []window{
		{c0: mark(0, 0), c1: mark(100*time.Millisecond, 50)},
		{c0: mark(100*time.Millisecond, 50), c1: mark(300*time.Millisecond, 100)},
		{c0: mark(900*time.Millisecond, 200), c1: mark(1100*time.Millisecond, 210)},
	}}
	got, n := cpuPerDecision(ph, []bool{true, true, false})
	if got != 3 || n != 100 {
		t.Errorf("cpuPerDecision = %g over %d, want 3 over 100", got, n)
	}
	if got, _ := cpuPerDecision(ph, []bool{false, false, false}); !math.IsNaN(got) {
		t.Errorf("cpuPerDecision of no windows = %g, want NaN", got)
	}

	// How far the counters moved between two snapshots.
	a := counters{cpu: cpuTime{user: time.Second, sys: time.Second}, alloc: 10, numGC: 3,
		stats: service.Stats{Decided: 250, Instances: 70}}
	b := counters{cpu: cpuTime{user: 600 * time.Millisecond, sys: 100 * time.Millisecond}, alloc: 4, numGC: 1,
		stats: service.Stats{Decided: 100, Instances: 30}}
	if d := a.since(b); d.cpu.total() != 1300*time.Millisecond || d.alloc != 6 || d.numGC != 2 || d.decided != 150 || d.instances != 40 {
		t.Errorf("since = %+v", d)
	}
}
