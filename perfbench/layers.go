package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"proxcensus/internal/ba"
	"proxcensus/internal/service"
	"proxcensus/internal/sim"
	"proxcensus/internal/transport"
	"proxcensus/internal/validate"
	"proxcensus/internal/wire"
)

// Layer replays time calls into each module's public functions from
// outside, on the instance shapes the run itself produced. They run
// after the load phases, on an idle process, in traced runs only.

// replayBudget is how long each layer replay of one shape repeats for,
// and replayMin/replayMax bound its repetitions.
const (
	replayBudget = 300 * time.Millisecond
	replayMin    = 5
	replayMax    = 200
)

// replayReq numbers the spans of replayed instances apart from the
// proposals' request ids.
const replayReq = int64(1) << 40

// serviceKappa and payloadCap mirror the service defaults the replays
// rebuild: the round count and the ingress screen's payload cap.
const (
	serviceKappa = service.DefaultKappa
	payloadCap   = service.DefaultBatch * (service.DefaultMaxPayload + 8)
)

// shape is one instance family of a workload and the share of its
// proposals that travel in it.
type shape struct {
	payload bool
	size    int
	weight  float64
}

func (w workload) shapes() []shape {
	switch w.payloadShare {
	case 0:
		return []shape{{weight: 1}}
	case 1:
		return []shape{{payload: true, size: w.size, weight: 1}}
	}
	return []shape{
		{payload: true, size: w.size, weight: w.payloadShare},
		{weight: 1 - w.payloadShare},
	}
}

// instance is one BA instance of a shape carrying batch proposals, with
// the input every party proposes: the batch bytes framed the way the
// service frames them (an 8-byte big-endian length before each
// payload), or one digest value.
type instance struct {
	proto *ba.Protocol
	bytes []byte
	value ba.Value
}

func (s shape) instance(setup *ba.Setup, batch int, seed uint64) (instance, error) {
	n := setup.N
	if !s.payload {
		v := ba.Value(splitmix(seed) >> 2)
		inputs := make([]ba.Value, n)
		for i := range inputs {
			inputs[i] = v
		}
		p, err := ba.NewMultivaluedOneShot(setup, serviceKappa, inputs, 0)
		return instance{proto: p, value: v}, err
	}
	in := make([]byte, 0, batch*(8+s.size))
	x := seed
	for b := 0; b < batch; b++ {
		in = binary.BigEndian.AppendUint64(in, uint64(s.size))
		for i := 0; i < s.size; i += 8 {
			x = splitmix(x)
			in = binary.LittleEndian.AppendUint64(in, x)
		}
		in = in[:len(in)-(8-s.size%8)%8]
	}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = in
	}
	p, err := ba.NewMultivaluedPayloadOneShot(setup, serviceKappa, inputs, nil)
	return instance{proto: p, bytes: in}, err
}

// decidedBytes is the size of what one instance decides.
func (in instance) decidedBytes() int {
	if in.bytes != nil {
		return len(in.bytes)
	}
	return 8
}

// checkOutputs verifies every party decided the instance's input.
func (in instance) checkOutputs(outs []any) error {
	if in.bytes != nil {
		ds := ba.PayloadDecisionsFromOutputs(outs)
		if len(ds) != len(outs) {
			return fmt.Errorf("%d of %d parties decided", len(ds), len(outs))
		}
		for i, d := range ds {
			if !bytes.Equal(d, in.bytes) {
				return fmt.Errorf("party %d decided %d bytes, not the %d-byte input", i, len(d), len(in.bytes))
			}
		}
		return nil
	}
	ds := ba.DecisionsFromOutputs(outs)
	if len(ds) != len(outs) {
		return fmt.Errorf("%d of %d parties decided", len(ds), len(outs))
	}
	for i, d := range ds {
		if d != in.value {
			return fmt.Errorf("party %d decided %d, not the input %d", i, d, in.value)
		}
	}
	return nil
}

// layerStats are the per-instance medians of one replayed shape.
type layerStats struct {
	transportInstance time.Duration
	rounds            []time.Duration
	encodeTagged      time.Duration
	decodeHub         time.Duration
	decodeNode        time.Duration
	decodeMsg         time.Duration
	decodeAlloc       float64
	admitBatch        time.Duration
	rejected          int
	baInstance        time.Duration
	honestPerDecided  float64
}

// replayer holds what every replay of one workload shares: the setup,
// a mux hub with its nodes, and the tracer.
type replayer struct {
	w     workload
	setup *ba.Setup
	hub   *transport.MuxHub
	nodes []*transport.MuxNode
	tr    *tracer
	seed  uint64
	next  int64
}

func newReplayer(w workload, seed int64, tr *tracer) (*replayer, error) {
	setup, err := ba.NewSetup(w.n, w.t, ba.CoinIdeal, seed)
	if err != nil {
		return nil, err
	}
	// The service's transport: default deadlines, and the per-instance
	// ingress screen it installs.
	n := w.n
	cfg := transport.Config{NewIngress: func(int) *validate.Validator {
		return validate.New(validate.ForPayloadService(n, payloadCap))
	}}
	hub, err := transport.NewMuxHub(n, cfg)
	if err != nil {
		return nil, err
	}
	rp := &replayer{w: w, setup: setup, hub: hub, tr: tr, seed: splitmix(uint64(seed) ^ 0x5eed)}
	for i := 0; i < n; i++ {
		nd, err := transport.NewMuxNode(hub.Addr(), i, cfg)
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.nodes = append(rp.nodes, nd)
	}
	if err := hub.AwaitNodes(transport.DefaultConfig().JoinTimeout); err != nil {
		rp.close()
		return nil, err
	}
	return rp, nil
}

func (rp *replayer) close() {
	for _, nd := range rp.nodes {
		_ = nd.Close()
	}
	_ = rp.hub.Close()
}

func (rp *replayer) newInstance(s shape, batch int) (instance, int64, error) {
	rp.next++
	in, err := s.instance(rp.setup, batch, rp.seed+uint64(rp.next))
	return in, replayReq + rp.next, err
}

// repeat runs f until the replay budget is spent, within the rep
// bounds, or f fails.
func repeat(f func() error) error {
	start := now()
	for n := 0; n < replayMin || (n < replayMax && now().Sub(start) < replayBudget); n++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func medianDur(xs []time.Duration) time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// replay measures every layer on one shape at one batch size.
func (rp *replayer) replay(s shape, batch int) (layerStats, error) {
	var st layerStats
	var inst []time.Duration
	var perRound [][]time.Duration
	if err := repeat(func() error {
		d, rounds, err := rp.transportInstance(s, batch)
		inst = append(inst, d)
		perRound = append(perRound, rounds)
		return err
	}); err != nil {
		return st, fmt.Errorf("transport replay: %w", err)
	}
	st.transportInstance = medianDur(inst)
	for r := range perRound[0] {
		col := make([]time.Duration, 0, len(perRound))
		for _, rounds := range perRound {
			if r < len(rounds) {
				col = append(col, rounds[r])
			}
		}
		st.rounds = append(st.rounds, medianDur(col))
	}

	var wt []wireTimes
	if err := repeat(func() error {
		t, err := rp.wireInstance(s, batch, false)
		wt = append(wt, t)
		return err
	}); err != nil {
		return st, fmt.Errorf("wire replay: %w", err)
	}
	pick := func(f func(wireTimes) time.Duration) time.Duration {
		xs := make([]time.Duration, len(wt))
		for i := range wt {
			xs[i] = f(wt[i])
		}
		return medianDur(xs)
	}
	st.encodeTagged = pick(func(t wireTimes) time.Duration { return t.encodeTagged })
	st.decodeHub = pick(func(t wireTimes) time.Duration { return t.decodeHub })
	st.decodeNode = pick(func(t wireTimes) time.Duration { return t.decodeNode })
	st.decodeMsg = pick(func(t wireTimes) time.Duration { return t.decodeMsg })
	st.admitBatch = pick(func(t wireTimes) time.Duration { return t.admitBatch })
	for _, t := range wt {
		st.rejected += t.rejected
	}
	alloc, err := rp.wireInstance(s, batch, true)
	if err != nil {
		return st, fmt.Errorf("wire alloc replay: %w", err)
	}
	st.decodeAlloc = float64(alloc.decodeAlloc)

	var simRuns []time.Duration
	if err := repeat(func() error {
		d, ratio, err := rp.baInstance(s, batch)
		simRuns = append(simRuns, d)
		st.honestPerDecided = ratio
		return err
	}); err != nil {
		return st, fmt.Errorf("ba replay: %w", err)
	}
	st.baInstance = medianDur(simRuns)
	return st, nil
}

// transportInstance drives one unloaded instance through the mux hub
// and nodes with the shape's own machines, as the service does.
func (rp *replayer) transportInstance(s shape, batch int) (time.Duration, []time.Duration, error) {
	in, req, err := rp.newInstance(s, batch)
	if err != nil {
		return 0, nil, err
	}
	n := rp.w.n
	start := now()
	hi, err := rp.hub.StartInstance(int(req-replayReq), in.proto.Rounds)
	if err != nil {
		return 0, nil, err
	}
	hubErr := make(chan error, 1)
	go func() { hubErr <- hi.Run() }()
	outs := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = rp.nodes[i].RunInstance(int(req-replayReq), in.proto.Rounds, in.proto.Machines[i])
		}(i)
	}
	wg.Wait()
	if err := <-hubErr; err != nil {
		return 0, nil, err
	}
	end := now()
	for i, e := range errs {
		if e != nil {
			return 0, nil, fmt.Errorf("party %d: %w", i, e)
		}
	}
	if err := in.checkOutputs(outs); err != nil {
		return 0, nil, err
	}
	rounds := hi.Report().RoundLatency
	root := rp.tr.record("transport.instance", 0, req, start, end)
	at := start
	for r, d := range rounds {
		// Derived from the hub's round barrier latencies, laid end to end.
		rp.tr.record(fmt.Sprintf("transport.round.r%d", r+1), root, req, at, at.Add(d))
		at = at.Add(d)
	}
	return end.Sub(start), rounds, nil
}

// wireTimes are one replayed instance's totals per wire and validate
// call site, summed over every party and round.
type wireTimes struct {
	encodeTagged, decodeHub, decodeNode, decodeMsg, admitBatch time.Duration
	decodeAlloc                                                uint64
	rejected                                                   int
}

// wireInstance runs one instance's machines in lock step and routes
// their sends the way the mux hub does, passing every round through
// the codec and ingress calls of the real path: each node encodes its
// tagged batch, the hub decodes it (capped), routes, and encodes one
// delivery per party, which the node decodes, decodes per message and
// screens with AdmitBatch. Machines receive the original payloads, so
// the decoded values only feed the screen. With allocs set it reads
// the bytes the decode calls allocate instead of timing the calls.
func (rp *replayer) wireInstance(s shape, batch int, allocs bool) (wireTimes, error) {
	var wt wireTimes
	in, req, err := rp.newInstance(s, batch)
	if err != nil {
		return wt, err
	}
	n := rp.w.n
	inst := int(req - replayReq)
	machines := in.proto.Machines
	screens := make([]*validate.Validator, n)
	sends := make([][]sim.Send, n)
	for i := range machines {
		screens[i] = validate.New(validate.ForPayloadService(n, payloadCap))
		sends[i] = machines[i].Start()
	}
	root := rp.tr.record("replay.instance", 0, req, now(), now())
	var before, after runtime.MemStats
	// step runs one call site over every party: timed into d, or, in the
	// allocs pass, with its allocated bytes added to alloc.
	step := func(name string, d *time.Duration, alloc *uint64, f func() error) error {
		if allocs {
			if alloc == nil {
				return f()
			}
			runtime.ReadMemStats(&before)
			err := f()
			runtime.ReadMemStats(&after)
			*alloc += after.TotalAlloc - before.TotalAlloc
			return err
		}
		start := now()
		err := f()
		end := now()
		*d += end.Sub(start)
		rp.tr.record(name, root, req, start, end)
		return err
	}
	outbound := make([][]wire.BatchMsg, n)
	frames := make([][]byte, n)
	hubIn := make([][]wire.BatchMsg, n)
	inboxes := make([][]wire.BatchMsg, n)
	nodeIn := make([][]wire.BatchMsg, n)
	screened := make([][]validate.Inbound, n)
	delivered := make([][]sim.Message, n)
	encodeFrames := func(round int, batches [][]wire.BatchMsg) func() error {
		return func() error {
			for p, b := range batches {
				var err error
				if frames[p], err = wire.AppendEncodeTaggedBatch(nil, inst, round, b); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for round := 1; round <= in.proto.Rounds; round++ {
		for from := range sends {
			outbound[from] = outbound[from][:0]
			for _, snd := range sends[from] {
				b, err := wire.Encode(snd.Payload)
				if err != nil {
					return wt, err
				}
				outbound[from] = append(outbound[from], wire.BatchMsg{Addr: snd.To, Payload: b})
			}
		}
		if err := step("wire.encode_tagged", &wt.encodeTagged, nil, encodeFrames(round, outbound)); err != nil {
			return wt, err
		}
		if err := step("wire.decode_hub", &wt.decodeHub, &wt.decodeAlloc, func() error {
			for from, f := range frames {
				var err error
				if _, _, hubIn[from], _, err = wire.DecodeTaggedBatchCapped(f, transport.DefaultFloodLimit); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return wt, err
		}
		// Route as the hub does: a broadcast fans out to every party. The
		// machines' inboxes are built from the sends themselves, never
		// from decoded bytes.
		for p := range inboxes {
			inboxes[p] = inboxes[p][:0]
			delivered[p] = delivered[p][:0]
		}
		for from, msgs := range hubIn {
			for _, m := range msgs {
				for p := 0; p < n; p++ {
					if m.Addr == sim.Broadcast || m.Addr == p {
						inboxes[p] = append(inboxes[p], wire.BatchMsg{Addr: from, Payload: m.Payload})
					}
				}
			}
		}
		for from, out := range sends {
			for _, snd := range out {
				for p := 0; p < n; p++ {
					if snd.To == sim.Broadcast || snd.To == p {
						delivered[p] = append(delivered[p], sim.Message{From: from, To: p, Round: round, Payload: snd.Payload})
					}
				}
			}
		}
		if err := step("wire.encode_tagged", &wt.encodeTagged, nil, encodeFrames(round, inboxes)); err != nil {
			return wt, err
		}
		if err := step("wire.decode_node", &wt.decodeNode, &wt.decodeAlloc, func() error {
			for p, f := range frames {
				var err error
				if _, _, nodeIn[p], err = wire.DecodeTaggedBatch(f); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return wt, err
		}
		if err := step("wire.decode_msg", &wt.decodeMsg, &wt.decodeAlloc, func() error {
			for p, msgs := range nodeIn {
				screened[p] = make([]validate.Inbound, len(msgs))
				for j, m := range msgs {
					pl, err := wire.Decode(m.Payload)
					if err != nil {
						return err
					}
					screened[p][j] = validate.Inbound{From: m.Addr, Raw: m.Payload, Payload: pl}
				}
			}
			return nil
		}); err != nil {
			return wt, err
		}
		var verdicts [][]bool
		if err := step("validate.admit_batch", &wt.admitBatch, nil, func() error {
			verdicts = verdicts[:0]
			for p := range screened {
				verdicts = append(verdicts, screens[p].AdmitBatch(round, screened[p], nil))
			}
			return nil
		}); err != nil {
			return wt, err
		}
		for _, vs := range verdicts {
			for _, ok := range vs {
				if !ok {
					wt.rejected++
				}
			}
		}
		for p, m := range machines {
			sends[p] = m.Deliver(round, delivered[p])
		}
	}
	rp.tr.finish(root, now())
	outs := make([]any, n)
	for p, m := range machines {
		out, ok := m.Output()
		if !ok {
			return wt, fmt.Errorf("party %d produced no output", p)
		}
		outs[p] = out
	}
	return wt, in.checkOutputs(outs)
}

// baInstance runs one instance in the simulator with no network and
// returns its time and honest bytes per decided byte.
func (rp *replayer) baInstance(s shape, batch int) (time.Duration, float64, error) {
	in, req, err := rp.newInstance(s, batch)
	if err != nil {
		return 0, 0, err
	}
	start := now()
	res, err := in.proto.Run(sim.Passive{}, int64(req))
	end := now()
	if err != nil {
		return 0, 0, err
	}
	if err := in.checkOutputs(res.HonestOutputs()); err != nil {
		return 0, 0, err
	}
	rp.tr.record("ba.instance", 0, req, start, end)
	return end.Sub(start), float64(res.Metrics.TotalHonestBytes()) / float64(in.decidedBytes()), nil
}
