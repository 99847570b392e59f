package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"proxcensus/internal/service"
)

// drainTimeout bounds the wait for outstanding proposals after a phase
// stops issuing; what is still open then counts as unresolved.
const drainTimeout = 30 * time.Second

// sampleEvery is how often the queue depth and resident memory are
// sampled.
const sampleEvery = 10 * time.Millisecond

// windowLen is about how long one measured window is; see metrics.go
// for which windows a statistic is taken over.
const windowLen = time.Second

// req is one attempted proposal. Times are offsets from the phase
// start.
type req struct {
	due, sent, done time.Duration
	// server is the latency the service reported in its decided line.
	server time.Duration
	out    outcome
	// win is the measured window the proposal was due in, or -1.
	win int
	// traced marks proposals of the light phase's traced segments.
	traced bool
}

// counters is a snapshot of the process and service counters a phase
// is measured by.
type counters struct {
	cpu     cpuTime
	io      procIO
	alloc   uint64
	mallocs uint64
	numGC   uint32
	pauseNs uint64
	stats   service.Stats
}

// delta is how far the counters moved over part of a run.
type delta struct {
	cpu                     cpuTime
	io                      procIO
	alloc, mallocs, pauseNs uint64
	numGC                   uint32
	decided, instances      int64
}

func (c counters) since(b counters) delta {
	return delta{
		cpu: c.cpu.sub(b.cpu), io: c.io.sub(b.io),
		alloc: c.alloc - b.alloc, mallocs: c.mallocs - b.mallocs, pauseNs: c.pauseNs - b.pauseNs,
		numGC:   c.numGC - b.numGC,
		decided: c.stats.Decided - b.stats.Decided, instances: c.stats.Instances - b.stats.Instances,
	}
}

// window is one measured stretch of a phase, as offsets from the
// phase start. In the light phase, c0 and c1 are the counters at its
// ends.
type window struct {
	from, to time.Duration
	c0, c1   counters
}

// cut splits the measured span [from, to) into windows of about
// windowLen.
func cut(from, to time.Duration) []window {
	n := int((to - from + windowLen/2) / windowLen)
	if n < 1 {
		n = 1
	}
	ws := make([]window, n)
	for k := range ws {
		ws[k].from = from + time.Duration(k)*(to-from)/time.Duration(n)
		ws[k].to = from + time.Duration(k+1)*(to-from)/time.Duration(n)
	}
	return ws
}

// windowOf is the window of ws that t falls in, or -1.
func windowOf(ws []window, t time.Duration) int {
	if len(ws) == 0 || t < ws[0].from || t >= ws[len(ws)-1].to {
		return -1
	}
	return sort.Search(len(ws), func(k int) bool { return ws[k].to > t })
}

// phase is the record of one load phase.
type phase struct {
	reqs []req
	wins []window
	// moved is how far the counters moved over the phase, its drain
	// included; in the light phase, from the end of the warm-up.
	moved delta
	// samples are the periodic queue depth, memory and host CPU
	// readings, in time order.
	samples []sample
}

func (ph *phase) tally() tally {
	var t tally
	for i := range ph.reqs {
		t[ph.reqs[i].out]++
	}
	return t
}

// svcRun is a running service with its API listener and clients.
type svcRun struct {
	svc     *service.Service
	ln      net.Listener
	clients []*service.Client
	serveWG sync.WaitGroup
}

// startService builds the service, serves its API on loopback and
// connects the clients. Its duration is the set-up time.
func startService(w workload) (*svcRun, time.Duration, error) {
	t0 := now()
	svc, err := service.New(service.Config{N: w.n, T: w.t})
	if err != nil {
		return nil, 0, fmt.Errorf("start service: %w", err)
	}
	r := &svcRun{svc: svc}
	r.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	r.serveWG.Add(1)
	go func() {
		defer r.serveWG.Done()
		_ = r.svc.ServeAPI(r.ln) // returns when the listener closes
	}()
	for i := 0; i < apiConns; i++ {
		c, err := service.DialClient(r.ln.Addr().String())
		if err != nil {
			r.close()
			return nil, 0, fmt.Errorf("dial API: %w", err)
		}
		r.clients = append(r.clients, c)
	}
	return r, now().Sub(t0), nil
}

// close stops the load side first, then drains the service.
func (r *svcRun) close() {
	for _, c := range r.clients {
		_ = c.Close()
	}
	_ = r.ln.Close()
	r.serveWG.Wait()
	_ = r.svc.Close()
}

// loadgen issues generated proposals against one running service.
type loadgen struct {
	w    workload
	gen  gen
	run  *svcRun
	tr   *tracer
	next atomic.Uint64
}

func (lg *loadgen) propose(c *service.Client) (proposal, uint64, <-chan service.Result, error) {
	k := lg.next.Add(1) - 1
	p := lg.gen.proposal(k)
	var ch <-chan service.Result
	var err error
	if p.payload != nil {
		ch, err = c.ProposePayload(p.payload)
	} else {
		ch, err = c.Propose(p.value)
	}
	return p, k, ch, err
}

// await waits for a result until abort closes; a result that is
// already there wins over the abort.
func await(ch <-chan service.Result, abort <-chan struct{}) (service.Result, bool) {
	select {
	case res := <-ch:
		return res, true
	case <-abort:
		select {
		case res := <-ch:
			return res, true
		default:
			return service.Result{}, false
		}
	}
}

// settle records a proposal's result and its spans.
func (lg *loadgen) settle(r *req, t0 time.Time, k uint64, p proposal, res service.Result, ok bool, returned time.Time) {
	done := now()
	r.done = done.Sub(t0)
	if !ok {
		r.out = outUnresolved
		return
	}
	r.out = classify(res, p.payload)
	r.server = res.Latency
	if !r.traced {
		return
	}
	id := int64(k) + 1
	root := lg.tr.record("loadgen.request", 0, id, t0.Add(r.due), done)
	lg.tr.record("api.propose", root, id, t0.Add(r.sent), returned)
	wait := lg.tr.record("api.wait", root, id, returned, done)
	if res.Decided {
		// Derived from the server latency in the decided line: the
		// service's own span ends when the client reads the answer.
		lg.tr.record("service.decide", wait, id, done.Add(-res.Latency), done)
	}
}

// drain waits for wg, closing abort if it takes longer than
// drainTimeout so every waiter gives up.
func drain(wg *sync.WaitGroup, abort chan struct{}) {
	stop := afterFunc(drainTimeout, func() { close(abort) })
	wg.Wait()
	stop()
}

// runLight is the open-loop phase: proposals are due on a fixed
// schedule at the workload's rate, whatever the service does, and each
// is timed from its due time. The first warmup is left out of its
// numbers, and the counters are read at every window boundary after
// it. In a traced run, alternate one-second segments record spans so
// traced and untraced latency can be compared within one run.
func (lg *loadgen) runLight(dur, warmup time.Duration) (*phase, error) {
	if dur <= warmup {
		return nil, fmt.Errorf("light phase of %s ends inside its %s warm-up", dur, warmup)
	}
	total := int(lg.w.rate * dur.Seconds())
	ph := &phase{reqs: make([]req, total), wins: cut(warmup, dur)}
	abort := make(chan struct{})
	var wg sync.WaitGroup
	t0 := now()
	stopSampling := lg.startSampling(t0)
	var err error
	snapTo := func(c *counters) {
		if err == nil {
			*c, err = lg.snap()
		}
	}
	mark := 0 // the next window whose start counters are due
	for i := 0; i < total && err == nil; i++ {
		r := &ph.reqs[i]
		r.due = dueOffset(i, lg.w.rate)
		for ; mark < len(ph.wins) && r.due >= ph.wins[mark].from; mark++ {
			snapTo(&ph.wins[mark].c0)
			if mark > 0 {
				ph.wins[mark-1].c1 = ph.wins[mark].c0
			}
		}
		r.win = windowOf(ph.wins, r.due)
		r.traced = lg.tr != nil && r.win >= 0 && ((r.due-warmup)/time.Second)%2 == 1
		sleepUntil(t0.Add(r.due))
		sent := now()
		p, k, ch, perr := lg.propose(lg.run.clients[i%apiConns])
		returned := now()
		r.sent = sent.Sub(t0)
		if perr != nil {
			r.done, r.out = r.sent, outErr
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, ok := await(ch, abort)
			lg.settle(r, t0, k, p, res, ok, returned)
		}()
	}
	if err == nil && mark < len(ph.wins) {
		err = fmt.Errorf("the light phase sent nothing after %s", ph.wins[mark].from)
	}
	snapTo(&ph.wins[len(ph.wins)-1].c1)
	drain(&wg, abort)
	ph.samples = stopSampling()
	var after counters
	snapTo(&after)
	if err != nil {
		return nil, err
	}
	ph.moved = after.since(ph.wins[0].c0)
	return ph, nil
}

// runPeak is the closed-loop phase: peakWindow workers each keep one
// proposal outstanding and send the next as soon as it resolves. The
// phase measures proposals sent in a span of length dur, with edge of
// load before and after it.
func (lg *loadgen) runPeak(dur, edge time.Duration) (*phase, error) {
	ph := &phase{wins: cut(edge, edge+dur)}
	before, err := lg.snap()
	if err != nil {
		return nil, err
	}
	abort := make(chan struct{})
	per := make([][]req, peakWindow)
	var wg sync.WaitGroup
	t0 := now()
	stopSampling := lg.startSampling(t0)
	stopAt := t0.Add(dur + 2*edge)
	for j := 0; j < peakWindow; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			c := lg.run.clients[j%apiConns]
			// Workers join evenly over the first half of the edge, so
			// the phase does not open as one burst of peakWindow
			// proposals, which would fill every batch at once.
			sleepUntil(t0.Add(time.Duration(j) * edge / 2 / peakWindow))
			for {
				sent := now()
				if !sent.Before(stopAt) {
					return
				}
				at := sent.Sub(t0)
				r := req{due: at, sent: at, win: windowOf(ph.wins, at), traced: lg.tr != nil}
				p, k, ch, perr := lg.propose(c)
				returned := now()
				if perr != nil {
					// The client's connection is gone; so is this worker.
					r.done, r.out = r.sent, outErr
					per[j] = append(per[j], r)
					return
				}
				res, ok := await(ch, abort)
				lg.settle(&r, t0, k, p, res, ok, returned)
				per[j] = append(per[j], r)
				if !ok {
					return
				}
			}
		}(j)
	}
	sleepUntil(stopAt)
	drain(&wg, abort)
	for _, rs := range per {
		ph.reqs = append(ph.reqs, rs...)
	}
	ph.samples = stopSampling()
	after, err := lg.snap()
	if err != nil {
		return nil, err
	}
	ph.moved = after.since(before)
	return ph, nil
}

// sample is one reading of the service queue depth, the process's
// resident memory and the machine's CPU time, at an offset from the
// phase start.
type sample struct {
	at      time.Duration
	pending int
	rss     float64
	host    hostCPU
}

// startSampling reads the queue depth, resident memory and host CPU
// time every sampleEvery until the returned stop is called, which
// returns the samples.
func (lg *loadgen) startSampling(t0 time.Time) func() []sample {
	quit := make(chan struct{})
	done := make(chan []sample)
	go func() {
		var xs []sample
		next := t0
		for {
			select {
			case <-quit:
				done <- xs
				return
			default:
			}
			host, _ := readHostCPU() // readable: measure checked it first
			xs = append(xs, sample{at: now().Sub(t0), pending: lg.run.svc.Stats().Pending, rss: residentBytes(), host: host})
			next = next.Add(sampleEvery)
			sleepUntil(next)
		}
	}()
	return func() []sample {
		close(quit)
		return <-done
	}
}

// residentBytes is the process's current resident set, from
// /proc/self/statm, or NaN when it cannot be read.
func residentBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize())
}

// readHostCPU reads the machine's CPU time from /proc/stat.
func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseProcStat(b)
}

// snap reads the process and service counters.
func (lg *loadgen) snap() (counters, error) {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = cpuTime{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return c, fmt.Errorf("read /proc/self/io: %w", err)
	}
	if c.io, err = parseProcIO(b); err != nil {
		return c, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.mallocs, c.numGC, c.pauseNs = ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	c.stats = lg.run.svc.Stats()
	return c, nil
}
