// Command perfbench runs the consensus service the way a client uses
// it and reports its end-to-end and per-layer metrics for one
// workload.
//
// One process builds the service (service.New + ServeAPI on loopback)
// and loads it over apiConns API connections through the public
// service.Client: first an open-loop light phase at a fixed rate below
// the batching knee, timed from each proposal's due time, then a
// closed-loop peak phase with peakWindow proposals outstanding. Every
// answer is checked against what was proposed.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 the
// light phase alternates traced and untraced one-second segments, the
// benchmark records spans around its calls into the service and writes
// them out at the end, and it replays each layer's public calls on the
// instance shapes the run produced; it prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload digest-n4 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run builds the service; setup_s is the
// median.
const setupReps = 15

// Exit codes besides 0 and 1.
const (
	exitUsage   = 2
	exitInvalid = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds, light and peak phase together")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the result and spans files")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return exitUsage
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, got %d\n", *seconds)
		return exitUsage
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return exitUsage
	}

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, n := range res.Gated {
		if _, ok := res.Metrics[n]; !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s has no value\n", n)
			return 1
		}
	}
	// The generator has fallen behind when it sends most proposals more
	// than one inter-arrival gap late: it no longer offers the intended
	// rate, and its own delay would be reported as service latency.
	// Occasional late sends, when the service's goroutines or another
	// tenant hold the CPUs, are jitter the latencies rightly include.
	if gap := dueOffset(1, w.rate); res.late > gap {
		fmt.Fprintf(stderr, "perfbench: run invalid: the generator fell behind, sending %.3f ms late at p50 (gap %s)\n",
			ms(res.late), gap)
		return exitInvalid
	}
	if err := res.write(*out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout)
	if res.tally[outWrongBytes] > 0 {
		fmt.Fprintf(stderr, "perfbench: %d decisions returned bytes other than the proposed ones\n", res.tally[outWrongBytes])
		return 1
	}
	return 0
}

// metric is one reported number; n is its sample count where it is a
// statistic of a sample.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is everything one run reports.
type result struct {
	Env      environment       `json:"env"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Traced   bool              `json:"traced"`
	Outcomes map[string]int    `json:"outcomes"`
	Metrics  map[string]metric `json:"metrics"`
	// Gated names the metrics the last line carries.
	Gated []string `json:"gated"`
	// Missing names the metrics that had no value.
	Missing []string `json:"missing,omitempty"`

	tally tally
	late  time.Duration
}

// add records a metric. A value that could not be measured, such as a
// quantile of no samples, is listed in Missing instead.
func (r *result) add(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Missing = append(r.Missing, name)
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// endToEnd lists the metrics an untraced run reports on its last line:
// the set-up time, what each decision costs the process, and whether
// every proposal succeeded. They are gated, so they must read the same
// on every run of the same code.
//
// The timings of the load phases are printed in the table only. On a
// shared 2-core host the machine's speed drifts by more than any usable
// bound within minutes, with no sign of it in /proc/stat: over ten
// consecutive 50-s digest-n4 runs the peak rate ranged from 4063 to
// 6949 decisions per second and the CPU per decision from 1.56 to
// 2.39 ms. fail_ratio is 0 on a correct run, so ok_ratio carries it.
var endToEnd = []string{
	"setup_s",
	"bytes_written_per_decision", "peak.bytes_written_per_decision",
	"write_syscalls_per_decision", "peak.write_syscalls_per_decision",
	"alloc_bytes_per_decision", "peak.alloc_bytes_per_decision",
	"ok_ratio",
}

// tableOnly lists the metrics of an untraced run that are printed but
// not gated.
var tableOnly = []string{
	"light.p50_ms", "light.p99_ms", "light.tail_pct", "cpu_ms_per_decision",
	"peak_dps", "peak.p99_ms", "peak.tail_pct", "mem_peak_mb", "fail_ratio",
}

// measure runs one workload and computes every metric of its mode.
func measure(w workload, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	res := &result{
		Env: fingerprint(), Workload: w.name, Seed: seed, Seconds: dur.Seconds(), Traced: traced,
		Metrics: make(map[string]metric),
	}

	// The windows statistics are taken over are chosen by the steal
	// in /proc/stat; without it there is no choosing.
	if _, err := readHostCPU(); err != nil {
		return nil, err
	}
	var setups []float64
	var sr *svcRun
	for i := 0; i < setupReps; i++ {
		r, d, err := startService(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			r.close()
		} else {
			sr = r
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer(now())
	}
	lg := &loadgen{w: w, gen: newGen(w, seed), run: sr, tr: tr}
	lightDur := time.Duration(float64(dur) * w.lightShare)
	peakDur := dur - lightDur
	edge := peakEdge
	if edge > peakDur/4 {
		edge = peakDur / 4
	}
	light, err := lg.runLight(lightDur, lightWarmup)
	if err != nil {
		sr.close()
		return nil, err
	}
	peak, err := lg.runPeak(peakDur-2*edge, edge)
	if err != nil {
		sr.close()
		return nil, err
	}
	rep := sr.svc.Report()
	final := sr.svc.Stats()
	sr.close()

	res.tally = light.tally()
	res.tally.add(peak.tally())
	res.Outcomes = make(map[string]int)
	for o, c := range res.tally {
		res.Outcomes[outcome(o).String()] = c
	}
	res.late = time.Duration(newDist(lateness(schedule(light))).q(0.5) * float64(time.Millisecond))

	endToEndMetrics(res, setups, light, peak)
	if !traced {
		res.Gated = endToEnd
		return res, nil
	}
	runLayerMetrics(res, w, light, peak, final, rep)
	if err := replayMetrics(res, w, seed, tr, batchFill(peak)); err != nil {
		return nil, err
	}
	res.add("trace.spans", "count", float64(tr.count()), 0)
	if err := tr.write(filepath.Join(outDir, "spans-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	res.Gated = perLayerNames(res)
	return res, nil
}

// perLayerNames lists a traced run's metrics, measured or missing: all
// but the end-to-end ones.
func perLayerNames(res *result) []string {
	skip := make(map[string]bool)
	for _, n := range append(endToEnd, tableOnly...) {
		skip[n] = true
	}
	var names []string
	for n := range res.Metrics {
		if !skip[n] {
			names = append(names, n)
		}
	}
	for _, n := range res.Missing {
		if !skip[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// write stores the full result, sample counts and environment
// included.
func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.Traced {
		mode = "layers"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-%s.json", r.Workload, mode)), append(b, '\n'), 0o644)
}

// print writes the human-readable table, the environment line and, as
// the last line, the result object.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	for _, n := range names {
		m := r.Metrics[n]
		count := ""
		if m.N > 0 {
			count = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s %s\n", n, m.Value, m.Unit, count)
	}
	fmt.Fprintf(w, "  outcomes %v\n", r.Outcomes)
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "env %s\n", env)

	type gatedMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]gatedMetric `json:"metrics"`
	}{
		Correct:   r.tally.failed() == 0,
		Attempted: r.tally.attempted(),
		Failed:    r.tally.failed(),
		Metrics:   make(map[string]gatedMetric),
	}
	for _, n := range r.Gated {
		m := r.Metrics[n]
		last.Metrics[n] = gatedMetric{Value: m.Value, Unit: m.Unit}
	}
	b, _ := json.Marshal(last)
	fmt.Fprintf(w, "%s\n", b)
}
