package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The benchmark times real work, so it reads the host clock. These
// three helpers are its only clock calls.

func now() time.Time {
	//lint:wallclock the benchmark measures wall time
	return time.Now()
}

func sleepUntil(t time.Time) {
	//lint:wallclock the open-loop generator sends on a wall-clock schedule
	if d := time.Until(t); d > 0 {
		//lint:wallclock the open-loop generator sends on a wall-clock schedule
		time.Sleep(d)
	}
}

// afterFunc runs f once d has passed, unless the returned stop is
// called first.
func afterFunc(d time.Duration, f func()) (stop func() bool) {
	//lint:wallclock drain deadlines are wall-clock bounds
	return time.AfterFunc(d, f).Stop
}

// span is one timed call: name, start, end, the span that caused it,
// and the request id shared by every span of one proposal or replayed
// instance.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs call it.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// record adds a span and returns its id, for children to name as
// parent. Ids start at 1; 0 is the parent of a root span.
func (tr *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds(),
	})
	return id
}

func (tr *tracer) count() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for i := range tr.spans {
		if err = enc.Encode(&tr.spans[i]); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}

// finish sets the end of a span recorded before its children.
func (tr *tracer) finish(id int64, end time.Time) {
	if tr == nil || id == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id-1].End = end.Sub(tr.t0).Nanoseconds()
}
