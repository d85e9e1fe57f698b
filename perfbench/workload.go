package main

import (
	"fmt"
	"math/rand"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
)

// workloadSpec shapes the closed-loop traffic. A fixed number of
// connection slots each put one packet into every burst, so a burst is
// what a gateway fronting many devices sees: one packet per connection,
// interleaved. A slot whose connection has sent its FIN opens the next
// one on a random corpus functionality.
type workloadSpec struct {
	name string
	why  string
	// slots is the number of concurrent connections.
	slots int
	// requests is the HTTP requests per connection (SYN and FIN add two
	// packets).
	requests int
	// pushEvery is the bursts between policy pushes.
	pushEvery int
	// pushLive sends the pushes to the gateway's own store, flipping
	// verdicts of live flows; otherwise they go to the standby store and
	// leave the gateway's caches alone.
	pushLive bool
}

var workloads = []workloadSpec{
	{
		name: "keepalive", slots: 512, requests: 64, pushEvery: 32,
		why: "long keep-alive connections, many interleaved: the fast-path layers (dataplane, flow table, conntrack, audit, netsim serve) do most of the work",
	},
	{
		name: "churn", slots: 512, requests: 1, pushEvery: 16,
		why: "SYN, one request, FIN: every connection pays stack capture and tag encode on the device and the gateway's miss path",
	},
	{
		name: "policy_push", slots: 512, requests: 64, pushEvery: 8, pushLive: true,
		why: "keepalive traffic with a push every 8 bursts that flips live flows' verdicts: policy compile and cache invalidation under load",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// slot is one connection position. start is the round the slot opens its
// first connection: starts are staggered so connections end (and new
// ones open) at a steady rate instead of all at once.
type slot struct {
	fn    *funcRef
	pkts  []*ipv4.Packet
	next  int
	start int
}

// generator drives one deployment in a closed loop from a single
// goroutine: open connections, deliver one burst, check it, repeat.
type generator struct {
	d     *deployment
	spec  workloadSpec
	rng   *rand.Rand
	slots []slot
	round int64
	burst []*ipv4.Packet
	owner []int32
	tr    *tracer // nil when untraced

	tally
	burstNs, invokeNs, pushNs []int64
}

// tally counts what the generator did. Every counter except failed and
// the latency samples is deterministic for a seed.
type tally struct {
	packets   int64
	delivered int64
	drops     [enforcer.NumDropCauses]int64
	conns     int64
	pushes    int64
	// failed counts oracle mismatches and calls that returned an error;
	// firstFailure describes the first.
	failed       int64
	firstFailure string
}

func newGenerator(d *deployment, spec workloadSpec, seed int64) *generator {
	g := &generator{
		d:     d,
		spec:  spec,
		rng:   rand.New(rand.NewSource(seed ^ 0x5851f42d4c957f2d)),
		slots: make([]slot, spec.slots),
		burst: make([]*ipv4.Packet, 0, spec.slots),
		owner: make([]int32, 0, spec.slots),
	}
	life := spec.requests + 2
	for i := range g.slots {
		g.slots[i].start = i * life / spec.slots
	}
	return g
}

func (g *generator) fail(format string, args ...any) {
	g.failed++
	if g.firstFailure == "" {
		g.firstFailure = fmt.Sprintf("round %d: ", g.round) + fmt.Sprintf(format, args...)
	}
}

// step runs one round: a policy push when one is due, new connections
// for the slots that need one, one burst through the network, and the
// oracle check of every delivery.
func (g *generator) step() {
	g.round++
	if g.round%int64(g.spec.pushEvery) == 0 {
		g.togglePush()
	}
	for i := range g.slots {
		s := &g.slots[i]
		if g.round > int64(s.start) && s.next == len(s.pkts) {
			g.open(s)
		}
	}

	buildStart := time.Now()
	g.burst, g.owner = g.burst[:0], g.owner[:0]
	for i := range g.slots {
		s := &g.slots[i]
		if s.next < len(s.pkts) {
			g.burst = append(g.burst, s.pkts[s.next])
			g.owner = append(g.owner, int32(i))
		}
	}
	if g.tr != nil {
		g.tr.beginBurst(g.burst)
	}
	deliverStart := time.Now()
	deliveries := g.d.tb.Network.DeliverBatch(g.burst)
	deliverEnd := time.Now()
	g.burstNs = append(g.burstNs, deliverEnd.Sub(deliverStart).Nanoseconds())

	for j, del := range deliveries {
		s := &g.slots[g.owner[j]]
		want := expect(s.fn, g.d.live.denied, g.burst[j])
		if msg := check(want, del); msg != "" {
			g.fail("%s/%s packet %d of %d: %s", s.fn.app.APK.PackageName, s.fn.name, s.next, len(s.pkts), msg)
		}
		if del.Delivered {
			g.delivered++
		} else if del.Enforcement != nil {
			g.drops[del.Enforcement.Cause]++
		}
		s.next++
	}
	g.packets += int64(len(g.burst))
	if len(deliveries) != len(g.burst) {
		g.fail("DeliverBatch returned %d deliveries for %d packets", len(deliveries), len(g.burst))
	}
	checkEnd := time.Now()
	if g.round%sweepEvery == 0 {
		g.d.tb.Network.Gateway.GC(sweepIdle)
	}
	if g.tr != nil {
		g.tr.leaf(kindBuild, g.round, buildStart, deliverStart)
		g.tr.endBurst(g.round, deliverStart, deliverEnd)
		g.tr.leaf(kindCheck, g.round, deliverEnd, checkEnd)
		if g.round%sweepEvery == 0 {
			g.tr.leaf(kindSweep, g.round, checkEnd, time.Now())
		}
	}
}

// The operator's periodic idle sweep, as a deployment runs it: every
// sweepEvery bursts, Gateway.GC reclaims connections idle for sweepIdle
// of virtual time and TTL-expired flow-cache entries. Without it, denied
// flows (whose FIN the gateway drops) stay in the flow table until
// capacity evicts them, and the tables grow with the length of the run.
const (
	sweepEvery = 64
	sweepIdle  = time.Minute
)

// open starts a new connection on a random corpus functionality.
func (g *generator) open(s *slot) {
	fn := &g.d.funcs[g.rng.Intn(len(g.d.funcs))]
	start := time.Now()
	res, err := fn.app.Invoke(fn.name)
	end := time.Now()
	g.invokeNs = append(g.invokeNs, end.Sub(start).Nanoseconds())
	g.conns++
	if g.tr != nil {
		g.tr.leaf(kindInvoke, g.conns, start, end)
	}
	s.fn, s.pkts, s.next = fn, nil, 0
	if err != nil {
		g.fail("invoke %s/%s: %v", fn.app.APK.PackageName, fn.name, err)
		return
	}
	s.pkts = res.Packets
}

// togglePush publishes the next policy revision. Pushes alternate: one
// denies the vendor whose code the most live allowed connections run
// through, so on the live plane their verdicts flip mid-connection; the
// next lifts it.
func (g *generator) togglePush() {
	c := &g.d.standby
	if g.spec.pushLive {
		c = &g.d.live
	}
	v := -1
	if c.denied < 0 {
		v = g.busiestAllowedVendor()
	}
	t, err := g.d.push(c, v)
	g.pushes++
	g.pushNs = append(g.pushNs, t.applied.Sub(t.start).Nanoseconds())
	if err != nil {
		g.fail("%v", err)
	}
	if g.tr != nil {
		g.tr.leaf(kindCompose, g.pushes, t.composed, t.start)
		g.tr.leaf(kindPublish, g.pushes, t.start, t.published)
		g.tr.leaf(kindReload, g.pushes, t.published, t.applied)
	}
}

func (g *generator) busiestAllowedVendor() int {
	live := make([]int, len(g.d.vendors))
	best := 0
	for i := range g.slots {
		s := &g.slots[i]
		if s.fn == nil || s.next >= len(s.pkts) || s.fn.tracker || s.fn.native || !s.fn.vendorInStack {
			continue
		}
		live[s.fn.vendor]++
		if live[s.fn.vendor] > live[best] || (live[s.fn.vendor] == live[best] && s.fn.vendor < best) {
			best = s.fn.vendor
		}
	}
	return best
}

// window is one slice of a measured phase.
type window struct {
	packets int64
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
}

// phase is one measured stretch of the closed loop.
type phase struct {
	tally    tally // counts over the phase only
	wall     time.Duration
	cpu      time.Duration
	windows  []window
	rt0      runtimeSample
	rt1      runtimeSample
	burstNs  []int64
	invokeNs []int64
	pushNs   []int64
}

// measure runs the loop for dur, cut into n windows of equal wall time.
func (g *generator) measure(dur time.Duration, n int) phase {
	g.burstNs, g.invokeNs, g.pushNs = nil, nil, nil
	before := g.tally
	p := phase{windows: make([]window, 0, n)}
	p.rt0 = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	wStart, wCPU, wAlloc, wPkts := start, cpu0, p.rt0.allocBytes, g.packets
	for len(p.windows) < n {
		g.step()
		now := time.Now()
		if now.Sub(start) < dur*time.Duration(len(p.windows)+1)/time.Duration(n) {
			continue
		}
		cpu, rt := cpuTime(), readRuntime()
		p.windows = append(p.windows, window{
			packets: g.packets - wPkts,
			wall:    now.Sub(wStart),
			cpu:     cpu - wCPU,
			alloc:   rt.allocBytes - wAlloc,
		})
		wStart, wCPU, wAlloc, wPkts = now, cpu, rt.allocBytes, g.packets
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rt1 = readRuntime()
	p.tally = g.tally.since(before)
	p.burstNs, p.invokeNs, p.pushNs = g.burstNs, g.invokeNs, g.pushNs
	return p
}

// since is the difference of two tallies (the first failure is kept).
func (t tally) since(before tally) tally {
	out := tally{
		packets:      t.packets - before.packets,
		delivered:    t.delivered - before.delivered,
		conns:        t.conns - before.conns,
		pushes:       t.pushes - before.pushes,
		failed:       t.failed - before.failed,
		firstFailure: t.firstFailure,
	}
	for i := range t.drops {
		out.drops[i] = t.drops[i] - before.drops[i]
	}
	return out
}
