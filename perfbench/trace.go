package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/policy"
)

// Layers of the ledger, named after the modules. bench is the
// benchmark's own work on the generator goroutine (building bursts,
// checking them against the oracle).
const (
	layerBench = iota
	layerAndroid
	layerNetsim
	layerKernel
	layerDataplane
	layerEnforcer
	layerPolicystore
	layerAudit
	numLayers
)

var layerNames = [numLayers]string{
	"bench", "android", "netsim", "kernel", "dataplane", "enforcer", "policystore", "audit",
}

// Span kinds. Each wraps a call the benchmark makes, or a seam the
// benchmark registered on the gateway (queue handlers, the dataplane
// lease, the audit writer).
const (
	kindInvoke     = iota // App.Invoke: device-side tagging and send
	kindBuild             // bench: gather one packet per live connection
	kindDeliver           // Network.DeliverBatch
	kindCheck             // bench: compare every delivery with the oracle
	kindCompose           // bench: render the next policy revision
	kindPublish           // Hub.Set
	kindReload            // Store.Reload
	kindSweep             // Gateway.GC: the periodic idle sweep
	kindDrain             // one drain worker's netfilter traversal
	kindProbe             // dataplane lease: probe loop
	kindHandler           // NFQUEUE 1 batch handler: Enforcer.ProcessBatch
	kindPromote           // dataplane lease: promotions and release
	kindSanitize          // NFQUEUE 2 batch handler: the Packet Sanitizer
	kindAuditWrite        // audit drainer's Write (off the request path)
	numKinds
)

var kinds = [numKinds]struct {
	name  string
	layer int
}{
	{"android.invoke", layerAndroid},
	{"bench.build", layerBench},
	{"netsim.deliver", layerNetsim},
	{"bench.check", layerBench},
	{"bench.compose", layerBench},
	{"policystore.publish", layerPolicystore},
	{"policystore.reload", layerPolicystore},
	{"netsim.sweep", layerNetsim},
	{"gateway.drain", layerKernel},
	{"dataplane.probe", layerDataplane},
	{"enforcer.handler", layerEnforcer},
	{"dataplane.promote", layerDataplane},
	{"gateway.sanitize", layerKernel},
	{"audit.write", layerAudit},
}

// span is one recorded interval. Spans of one burst share Req (the round
// number); an invoke's Req is its connection number.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// maxKeptSpans bounds the spans kept for the dump; totals cover all.
const maxKeptSpans = 20000

// lane is one drain worker's view of a burst, filled in by the timing
// seams on that worker's goroutine and read after DeliverBatch returns.
// Zero times mean the seam did not run.
type lane struct {
	acquire, release int64 // dataplane lease
	hStart, hEnd     int64 // enforcer queue handler
	sStart, sEnd     int64 // sanitizer queue handler
	probes, handled  int64
}

// tracer records spans in memory and keeps per-kind totals and the
// ledger's wall-time shares.
type tracer struct {
	epoch   time.Time
	workers int
	nextID  int64

	spans   []span
	dropped int64

	count [numKinds]int64
	total [numKinds]int64  // summed span durations
	self  [numKinds]int64  // summed self times
	wall  [numLayers]int64 // ledger: wall time attributed per layer

	probes, handled int64
	reloadNs        []int64

	// Burst in flight: packet positions and per-worker lanes.
	pos   map[*ipv4.Packet]int32
	chunk int
	lanes []lane

	auditMu      sync.Mutex
	auditSpans   []span
	auditNs      int64
	auditRecords int64
	auditBytes   int64
	auditWrites  int64
}

func newTracer(workers int) *tracer {
	return &tracer{
		epoch:   time.Now(),
		workers: workers,
		pos:     make(map[*ipv4.Packet]int32),
	}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) now() int64 { return t.ns(time.Now()) }

// keep appends a span to the dump unless the dump is full.
func (t *tracer) keep(s span) {
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, s)
		return
	}
	t.dropped++
}

// leaf records a span with no children on the generator goroutine.
func (t *tracer) leaf(kind int, req int64, start, end time.Time) {
	s, e := t.ns(start), t.ns(end)
	t.nextID++
	t.count[kind]++
	t.total[kind] += e - s
	t.self[kind] += e - s
	t.wall[kinds[kind].layer] += e - s
	if kind == kindReload {
		t.reloadNs = append(t.reloadNs, e-s)
	}
	t.keep(span{Name: kinds[kind].name, ID: t.nextID, Parent: -1, Req: req, Start: s, End: e, Self: e - s})
}

// beginBurst maps each packet of the burst to the drain worker that will
// carry it: Netfilter.DrainBatch splits a burst into contiguous chunks,
// one per worker.
func (t *tracer) beginBurst(pkts []*ipv4.Packet) {
	clear(t.pos)
	for i, p := range pkts {
		t.pos[p] = int32(i)
	}
	w := min(t.workers, len(pkts))
	t.chunk = 1
	if w > 0 {
		t.chunk = (len(pkts) + w - 1) / w
	}
	if cap(t.lanes) < w {
		t.lanes = make([]lane, w)
	}
	t.lanes = t.lanes[:w]
	clear(t.lanes)
}

// laneOf finds the worker lane a packet of the burst in flight rides in.
func (t *tracer) laneOf(pkt *ipv4.Packet) *lane {
	i, ok := t.pos[pkt]
	if !ok {
		return nil
	}
	return &t.lanes[int(i)/t.chunk]
}

// child is one seam's interval inside a drain lane.
type child struct {
	kind int
	iv   interval
}

// endBurst records the DeliverBatch span and, under it, one drain span
// per worker lane with the seams' spans as its children. Self times
// follow the rule: a span minus the part of it its children cover. For
// the ledger, the wall time the lanes cover together is shared among
// their layers in proportion to each layer's self time, so concurrent
// workers are not counted twice.
func (t *tracer) endBurst(req int64, start, end time.Time) {
	ds, de := t.ns(start), t.ns(end)
	t.nextID++
	deliverID := t.nextID
	var drains []interval
	var layerSelf [numLayers]int64
	for i := range t.lanes {
		l := &t.lanes[i]
		t.probes += l.probes
		t.handled += l.handled
		var kids []child
		if l.acquire != 0 {
			probeEnd := l.release
			if l.hStart != 0 {
				probeEnd = l.hStart
			}
			kids = append(kids, child{kindProbe, interval{l.acquire, probeEnd}})
			if l.hStart != 0 {
				kids = append(kids, child{kindPromote, interval{l.hEnd, l.release}})
			}
		}
		if l.hStart != 0 {
			kids = append(kids, child{kindHandler, interval{l.hStart, l.hEnd}})
		}
		if l.sStart != 0 {
			kids = append(kids, child{kindSanitize, interval{l.sStart, l.sEnd}})
		}
		if len(kids) == 0 {
			continue
		}
		drain := kids[0].iv
		ivs := make([]interval, len(kids))
		for k, c := range kids {
			drain.Start = min(drain.Start, c.iv.Start)
			drain.End = max(drain.End, c.iv.End)
			ivs[k] = c.iv
		}
		drains = append(drains, drain)
		t.nextID++
		drainID := t.nextID
		drainSelf := selfTime(drain, ivs)
		t.count[kindDrain]++
		t.total[kindDrain] += drain.End - drain.Start
		t.self[kindDrain] += drainSelf
		layerSelf[layerKernel] += drainSelf
		t.keep(span{Name: kinds[kindDrain].name, ID: drainID, Parent: deliverID, Req: req,
			Start: drain.Start, End: drain.End, Self: drainSelf})
		for _, c := range kids {
			d := c.iv.End - c.iv.Start
			t.nextID++
			t.count[c.kind]++
			t.total[c.kind] += d
			t.self[c.kind] += d
			layerSelf[kinds[c.kind].layer] += d
			t.keep(span{Name: kinds[c.kind].name, ID: t.nextID, Parent: drainID, Req: req,
				Start: c.iv.Start, End: c.iv.End, Self: d})
		}
	}
	deliver := interval{ds, de}
	covered := coveredWithin(deliver, drains)
	deliverSelf := (de - ds) - covered
	t.count[kindDeliver]++
	t.total[kindDeliver] += de - ds
	t.self[kindDeliver] += deliverSelf
	t.wall[layerNetsim] += deliverSelf
	var weight int64
	for _, w := range layerSelf {
		weight += w
	}
	if weight > 0 {
		var given int64
		last := -1
		for l, w := range layerSelf {
			if w == 0 {
				continue
			}
			share := covered * w / weight
			t.wall[l] += share
			given += share
			last = l
		}
		t.wall[last] += covered - given // rounding remainder
	}
	t.keep(span{Name: kinds[kindDeliver].name, ID: deliverID, Parent: -1, Req: req, Start: ds, End: de, Self: deliverSelf})
}

// install registers the timing seams on the deployment's gateway. The
// queue handlers do exactly what the gateway's own handlers do, so every
// verdict is the one the untraced gateway would give.
func (t *tracer) install(d *deployment) {
	gw := d.tb.Network.Gateway
	nf := gw.Netfilter()
	enf := gw.Enforcer()
	san := gw.Sanitizer()
	nf.RegisterBatchQueue(1, func(pkts []*ipv4.Packet) []kernel.BatchVerdict {
		start := t.now()
		results := enf.ProcessBatch(pkts, nil)
		out := make([]kernel.BatchVerdict, len(pkts))
		for i := range results {
			out[i] = kernel.BatchVerdict{Verdict: kernel.VerdictAccept, Aux: &results[i]}
			if results[i].Verdict == policy.VerdictDrop {
				out[i].Verdict = kernel.VerdictDrop
			}
		}
		end := t.now()
		if l := t.laneOf(pkts[0]); l != nil {
			l.hStart, l.hEnd = start, end
			l.handled += int64(len(pkts))
		}
		return out
	})
	nf.RegisterBatchQueue(2, func(pkts []*ipv4.Packet) []kernel.BatchVerdict {
		start := t.now()
		out := make([]kernel.BatchVerdict, len(pkts))
		for i, pkt := range pkts {
			out[i] = kernel.BatchVerdict{Verdict: kernel.VerdictAccept, Rewritten: san.Process(pkt.Clone())}
		}
		end := t.now()
		if l := t.laneOf(pkts[0]); l != nil {
			l.sStart, l.sEnd = start, end
		}
		return out
	})
	if dp := gw.Dataplane(); dp != nil {
		nf.RegisterDataplane(1, &timedDataplane{inner: dp, t: t})
	}
}

// timedDataplane wraps the gateway's dataplane to time each lease.
type timedDataplane struct {
	inner kernel.Dataplane
	t     *tracer
}

func (d *timedDataplane) Acquire() kernel.DataplaneCore {
	start := d.t.now()
	c := d.inner.Acquire()
	if c == nil {
		return nil
	}
	return &timedCore{inner: c, t: d.t, acquired: start}
}

// timedCore learns its lane from the first packet it probes.
type timedCore struct {
	inner    kernel.DataplaneCore
	t        *tracer
	lane     *lane
	acquired int64
	probes   int64
}

func (c *timedCore) Probe(pkt *ipv4.Packet) (kernel.Verdict, any, bool) {
	if c.lane == nil {
		c.lane = c.t.laneOf(pkt)
	}
	c.probes++
	return c.inner.Probe(pkt)
}

func (c *timedCore) Promote(pkt *ipv4.Packet, v kernel.Verdict, aux any) {
	c.inner.Promote(pkt, v, aux)
}

func (c *timedCore) Release() {
	c.inner.Release()
	if c.lane != nil {
		c.lane.acquire, c.lane.release = c.acquired, c.t.now()
		c.lane.probes += c.probes
	}
}

// auditSink is the audit trail's writer. It discards the bytes — the
// JSON encoding is still paid, as under bp-gateway -audit, with no disk
// variance — and while a tracer is attached it times each write and
// counts the records it carried.
type auditSink struct{ t atomic.Pointer[tracer] }

func (a *auditSink) Write(p []byte) (int, error) {
	t := a.t.Load()
	if t == nil {
		return len(p), nil
	}
	start := t.now()
	end := t.now()
	t.auditWrite(start, end, int64(bytes.Count(p, []byte{'\n'})), int64(len(p)))
	return len(p), nil
}

func (t *tracer) auditWrite(start, end, records, n int64) {
	t.auditMu.Lock()
	defer t.auditMu.Unlock()
	t.auditWrites++
	t.auditNs += end - start
	t.auditRecords += records
	t.auditBytes += n
	if len(t.auditSpans) < maxKeptSpans/10 {
		t.auditSpans = append(t.auditSpans, span{Name: kinds[kindAuditWrite].name, ID: -1 - t.auditWrites,
			Parent: -1, Req: -1, Start: start, End: end, Self: end - start})
	}
}

// dump writes the kept spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.auditMu.Lock()
	all := append(t.spans[:len(t.spans):len(t.spans)], t.auditSpans...)
	t.auditMu.Unlock()
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}
