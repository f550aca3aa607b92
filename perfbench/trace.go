package main

import (
	"fmt"
	"time"

	"divlab/internal/cache"
	"divlab/internal/mem"
	"divlab/internal/prefetch"
	"divlab/internal/sim"
	"divlab/internal/trace"
	"divlab/internal/vmem"
	"divlab/internal/workloads"
)

// The traced run reaches the layers sim calls through the two values sim
// accepts from outside: the prefetch component a Factory returns and the
// workloads.Instance handed to RunSingleOn/RunMultiOn. Both are decorated.
// The decorators count calls and time them in aggregate per simulation (no
// span per event), and the component decorator captures, in call order,
// everything the core's hierarchy did that the component saw: every demand
// mem.Event (cycle and latency included), every instruction window and
// every request the component issued with its issue cycle. The replays in
// replay.go rebuild the core, the hierarchy and each prefetcher alone from
// that capture.

// opKind tells a demand access from a prefetch request in a capture.
type opKind uint8

const (
	opDemand opKind = iota
	opPrefetch
)

// memOp is one call the simulation made into a core's hierarchy.
type memOp struct {
	kind opKind
	core uint8
	// store is set for demand stores.
	store bool
	// at is the access or issue cycle.
	at uint64
	// pc/addr/lat describe a demand access; lat is the latency it returned.
	pc, addr, lat uint64
	// req is the prefetch request (opPrefetch).
	req prefetch.Request
}

// delivery is one call sim made into a component: an access event, or an
// instruction window [lo, hi) of the core's captured instructions.
type delivery struct {
	ev     mem.Event
	window bool
	lo, hi int
}

// coreCapture is what one core's component saw.
type coreCapture struct {
	deliveries []delivery
	insts      []trace.Inst
	cycles     []uint64
	// lats are the demand latencies in access order (the cpu replay's input).
	lats []uint64
	// issued counts requests the component emitted.
	issued int
	// useful counts demand accesses that were first hits on prefetched lines.
	useful int
}

// capture is one simulation's boundary traffic across all its cores.
type capture struct {
	ops   []memOp
	cores []*coreCapture
	taps  []*pfTap
	insts []*instTap
}

// pfTap decorates a prefetch component. The method set sim sees is chosen
// by wrapComponent so it matches the wrapped component's optional
// interfaces exactly (see the variant types below).
type pfTap struct {
	inner prefetch.Component
	// outer is the decorator value handed to sim.
	outer prefetch.Component
	cap   *capture
	core  int
	cc    *coreCapture
	// busy is the time spent inside the wrapped component's calls; calls
	// counts the timed calls (each pays one clock-read pair).
	busy  time.Duration
	calls int64
	// issue is the downstream issuer of the scalar call in progress;
	// capIssue is the bound method that captures and forwards to it.
	issue    prefetch.Issuer
	capIssue prefetch.Issuer
	at       uint64
}

func (t *pfTap) Name() string     { return t.inner.Name() }
func (t *pfTap) Reset()           { t.inner.Reset() }
func (t *pfTap) StorageBits() int { return t.inner.StorageBits() }
func (t *pfTap) children() []prefetch.Component {
	return t.inner.(prefetch.Parent).Children()
}
func (t *pfTap) setID(id int) { t.inner.(interface{ SetID(int) }).SetID(id) }

// demand records one access event before the component sees it.
func (t *pfTap) demand(ev *mem.Event) {
	t.cc.deliveries = append(t.cc.deliveries, delivery{ev: *ev})
	t.cc.lats = append(t.cc.lats, ev.Latency)
	if ev.PrefetchHitL1 || ev.PrefetchHitL2 {
		t.cc.useful++
	}
	t.cap.ops = append(t.cap.ops, memOp{
		kind: opDemand, core: uint8(t.core), store: ev.Store, at: ev.Cycle,
		pc: ev.PC, addr: ev.Addr, lat: ev.Latency,
	})
}

// request records one issued request.
func (t *pfTap) request(req prefetch.Request, at uint64) {
	t.cc.issued++
	t.cap.ops = append(t.cap.ops, memOp{kind: opPrefetch, core: uint8(t.core), at: at, req: req})
}

// captureIssue is the scalar path's issuer: record, then forward.
func (t *pfTap) captureIssue(req prefetch.Request) {
	t.request(req, t.at)
	t.issue(req)
}

// window records one instruction window.
func (t *pfTap) window(insts []trace.Inst, cycles []uint64) {
	lo := len(t.cc.insts)
	t.cc.insts = append(t.cc.insts, insts...)
	t.cc.cycles = append(t.cc.cycles, cycles...)
	t.cc.deliveries = append(t.cc.deliveries, delivery{window: true, lo: lo, hi: len(t.cc.insts)})
}

// OnAccess implements prefetch.Component.
func (t *pfTap) OnAccess(ev *mem.Event, issue prefetch.Issuer) {
	t.demand(ev)
	t.issue, t.at = issue, ev.Cycle
	t0 := time.Now()
	t.inner.OnAccess(ev, t.capIssue)
	t.busy += time.Since(t0)
	t.calls++
}

func (t *pfTap) onInst(in *trace.Inst, cycle uint64, issue prefetch.Issuer) {
	t.window([]trace.Inst{*in}, []uint64{cycle})
	t.issue, t.at = issue, cycle
	t0 := time.Now()
	t.inner.(prefetch.InstObserver).OnInst(in, cycle, t.capIssue)
	t.busy += time.Since(t0)
	t.calls++
}

// sinkDelta records the requests a batch call added to sink. A forced
// flush inside the call drains the sink first; it only happens with more
// than sinkCap-EventCap requests queued, and one event adds at most
// EventCap, so a shorter sink after the call means the new requests start
// at 0.
func (t *pfTap) sinkDelta(sink *prefetch.Sink, before int) {
	reqs, ats := sink.Requests()
	if len(reqs) < before {
		before = 0
	}
	for i := before; i < len(reqs); i++ {
		t.request(reqs[i], ats[i])
	}
}

// onAccessBatch delivers events one at a time, which the batch contract
// makes equivalent to one call, so each event's requests can be read off
// the sink.
func (t *pfTap) onAccessBatch(evs []mem.Event, sink *prefetch.Sink) {
	bc := t.inner.(prefetch.BatchComponent)
	for i := range evs {
		t.demand(&evs[i])
		n := sink.Len()
		t0 := time.Now()
		bc.OnAccessBatch(evs[i:i+1], sink)
		t.busy += time.Since(t0)
		t.calls++
		t.sinkDelta(sink, n)
	}
}

func (t *pfTap) onInstBatch(insts []trace.Inst, cycles []uint64, sink *prefetch.Sink) {
	t.window(insts, cycles)
	bo := t.inner.(prefetch.BatchInstObserver)
	for i := range insts {
		n := sink.Len()
		t0 := time.Now()
		bo.OnInstBatch(insts[i:i+1], cycles[i:i+1], sink)
		t.busy += time.Since(t0)
		t.calls++
		t.sinkDelta(sink, n)
	}
}

// ifaceSet is the set of optional interfaces a component implements; sim
// chooses the step loop, the dispatch path and the owner ids from it.
type ifaceSet struct {
	SetID, Parent, InstObserver, BatchComponent, BatchInstObserver bool
}

func ifacesOf(c prefetch.Component) ifaceSet {
	_, id := c.(interface{ SetID(int) })
	_, parent := c.(prefetch.Parent)
	_, inst := c.(prefetch.InstObserver)
	_, batch := c.(prefetch.BatchComponent)
	_, instB := c.(prefetch.BatchInstObserver)
	return ifaceSet{id, parent, inst, batch, instB}
}

// The decorator variants, one per interface set the registry produces.
type (
	// tapID: monolithic scalar components and the no-op baseline.
	tapID struct{ *pfTap }
	// tapIDBatch: components with a native access-batch path (GHB).
	tapIDBatch struct{ *pfTap }
	// tapComposite: TPC — a parent with native batch paths for both
	// accesses and instructions.
	tapComposite struct{ *pfTap }
)

func (t tapID) SetID(id int)      { t.setID(id) }
func (t tapIDBatch) SetID(id int) { t.setID(id) }
func (t tapIDBatch) OnAccessBatch(evs []mem.Event, sink *prefetch.Sink) {
	t.onAccessBatch(evs, sink)
}
func (t tapComposite) SetID(id int)                   { t.setID(id) }
func (t tapComposite) Children() []prefetch.Component { return t.children() }
func (t tapComposite) OnInst(in *trace.Inst, cycle uint64, issue prefetch.Issuer) {
	t.onInst(in, cycle, issue)
}
func (t tapComposite) OnAccessBatch(evs []mem.Event, sink *prefetch.Sink) {
	t.onAccessBatch(evs, sink)
}
func (t tapComposite) OnInstBatch(insts []trace.Inst, cycles []uint64, sink *prefetch.Sink) {
	t.onInstBatch(insts, cycles, sink)
}

// wrapComponent decorates c with the variant whose method set equals c's.
func wrapComponent(c prefetch.Component, t *pfTap) (prefetch.Component, error) {
	t.inner = c
	t.capIssue = t.captureIssue
	switch s := ifacesOf(c); s {
	case ifaceSet{SetID: true}:
		t.outer = tapID{t}
	case ifaceSet{SetID: true, BatchComponent: true}:
		t.outer = tapIDBatch{t}
	case ifaceSet{SetID: true, Parent: true, InstObserver: true, BatchComponent: true, BatchInstObserver: true}:
		t.outer = tapComposite{t}
	default:
		return nil, fmt.Errorf("no decorator for %s with interfaces %+v", c.Name(), s)
	}
	return t.outer, nil
}

// instTap decorates a workloads.Instance, timing and counting its calls.
type instTap struct {
	inner    workloads.Instance
	busy     time.Duration
	calls    int64
	classify int64
}

func (t *instTap) Next(out *trace.Inst) bool {
	t0 := time.Now()
	ok := t.inner.Next(out)
	t.busy += time.Since(t0)
	t.calls++
	return ok
}

func (t *instTap) Memory() vmem.Memory { return t.inner.Memory() }

func (t *instTap) Classify(line cache.Line) workloads.Category {
	t0 := time.Now()
	c := t.inner.Classify(line)
	t.busy += time.Since(t0)
	t.calls++
	t.classify++
	return c
}

// instTapBatch adds the batch path for sources that have one.
type instTapBatch struct{ *instTap }

func (t instTapBatch) NextBatch(max int) []trace.Inst {
	t0 := time.Now()
	b := t.inner.(trace.BatchSource).NextBatch(max)
	t.busy += time.Since(t0)
	t.calls++
	return b
}

// wrapInstance decorates in, exposing trace.BatchSource exactly when in does.
func wrapInstance(in workloads.Instance, t *instTap) workloads.Instance {
	t.inner = in
	if _, ok := in.(trace.BatchSource); ok {
		return instTapBatch{t}
	}
	return t
}

// tracedFactory decorates f for one simulation. A nil f (the no-prefetch
// baseline) has no component to decorate, so it is captured through a
// no-op component.
func (c *capture) tracedFactory(f sim.Factory, errp *error) sim.Factory {
	return func(inst workloads.Instance) prefetch.Component {
		var comp prefetch.Component = &prefetch.Nop{}
		if f != nil {
			comp = f(inst)
		}
		cc := &coreCapture{}
		t := &pfTap{cap: c, core: len(c.cores), cc: cc}
		c.cores = append(c.cores, cc)
		c.taps = append(c.taps, t)
		w, err := wrapComponent(comp, t)
		if err != nil {
			*errp = err
			return comp
		}
		return w
	}
}

// tracedInstances decorates one instance per core.
func (c *capture) tracedInstances(insts []workloads.Instance) []workloads.Instance {
	out := make([]workloads.Instance, len(insts))
	for i, in := range insts {
		t := &instTap{}
		c.insts = append(c.insts, t)
		out[i] = wrapInstance(in, t)
	}
	return out
}

// live sums the decorators' busy time and timed calls per layer.
func (c *capture) live() (pfBusy, wlBusy time.Duration, pfCalls, wlCalls, classify int64) {
	for _, t := range c.taps {
		pfBusy += t.busy
		pfCalls += t.calls
	}
	for _, t := range c.insts {
		wlBusy += t.busy
		wlCalls += t.calls
		classify += t.classify
	}
	return
}
