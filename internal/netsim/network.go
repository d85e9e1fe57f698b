// Package netsim simulates the enterprise network testbed of the paper's
// evaluation (§VI-A, §VI-D): the emulator's NIC modes (QEMU SLIRP vs TAP),
// the gateway host whose iptables rules divert BYOD traffic into the
// user-space Policy Enforcer and Packet Sanitizer, local and external HTTP
// servers, RFC 7126 border filtering, packet capture for the analysis
// pipeline, and a virtual clock with a calibrated latency model.
package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/httpsim"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/transport"
)

// NICMode is the emulator's network interface mode.
type NICMode int

// NIC modes.
const (
	// ModeSLIRP is QEMU user-mode networking (the SDK default).
	ModeSLIRP NICMode = iota + 1
	// ModeTAP is the virtual TAP interface the paper's testbed uses.
	ModeTAP
)

// String names the mode.
func (m NICMode) String() string {
	switch m {
	case ModeSLIRP:
		return "slirp"
	case ModeTAP:
		return "tap"
	default:
		return fmt.Sprintf("nic(%d)", int(m))
	}
}

// DropStage identifies where in the path a packet died.
type DropStage int

// Drop stages.
const (
	// StageNone means the packet was delivered.
	StageNone DropStage = iota
	// StageGateway is a Policy Enforcer (or netfilter) drop.
	StageGateway
	// StageBorder is an RFC 7126 drop at the upstream router.
	StageBorder
	// StageNoRoute is an unknown destination.
	StageNoRoute
	// StageFault is a loss injected by the installed FaultPlan (the wire
	// ate the packet before the gateway ever saw it).
	StageFault
)

// String names the stage.
func (s DropStage) String() string {
	switch s {
	case StageNone:
		return "delivered"
	case StageGateway:
		return "gateway"
	case StageBorder:
		return "border-router"
	case StageNoRoute:
		return "no-route"
	case StageFault:
		return "wire-fault"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Server is a network endpoint handling HTTP requests (over TCP segments
// or legacy plain payloads) and/or UDP datagrams.
type Server struct {
	// Addr is the server's IPv4 address.
	Addr netip.Addr
	// Name is the DNS name(s) it serves, for reporting.
	Name string
	// Handler produces HTTP responses.
	Handler httpsim.Handler
	// UDPHandler answers UDP datagrams (e.g. dns.ZoneHandler serving a
	// zone); the returned bytes become Delivery.Datagram (nil = no reply).
	UDPHandler func(payload []byte) []byte
	// Internal servers sit inside the corporate perimeter: traffic to them
	// passes the gateway but not the RFC 7126 border router.
	Internal bool

	mu       sync.Mutex
	requests uint64
	rxBytes  uint64
}

// Requests returns the number of requests the server handled.
func (s *Server) Requests() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// RxBytes returns the total request-body bytes received.
func (s *Server) RxBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rxBytes
}

// CapturePoint identifies where a capture was taken.
type CapturePoint int

// Capture points, mirroring where the paper inspects traffic.
const (
	// CaptureDeviceEgress sees packets as they leave the device (tagged).
	CaptureDeviceEgress CapturePoint = iota + 1
	// CapturePostGateway sees packets after enforcement + sanitizing.
	CapturePostGateway
)

// Capture is an append-only packet log (pcap stand-in).
type Capture struct {
	mu   sync.Mutex
	pkts []*ipv4.Packet
}

// Append clones and stores a packet.
func (c *Capture) Append(pkt *ipv4.Packet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pkts = append(c.pkts, pkt.Clone())
}

// Packets returns the captured packets (shared slice of clones; callers
// must not mutate).
func (c *Capture) Packets() []*ipv4.Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*ipv4.Packet(nil), c.pkts...)
}

// Len returns the number of captured packets.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

// Reset clears the capture.
func (c *Capture) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pkts = nil
}

// Network is the assembled testbed.
type Network struct {
	Clock *Clock
	Model LatencyModel
	// NIC selects the emulator interface mode.
	NIC NICMode
	// Gateway is the perimeter appliance; nil routes straight to servers.
	// When subnet routes are installed (AddGatewayRoute) it becomes the
	// default for sources no route covers — the N=1 topology is just the
	// zero-route special case of the fleet.
	Gateway *Gateway
	// BorderFilterEnabled applies RFC 7126 at the upstream router for
	// non-internal destinations.
	BorderFilterEnabled bool

	// gwRoutes, when non-nil, maps device source subnets to their owning
	// gateways: the fleet topology, where each enforcement point fronts
	// one slice of the device population. One atomic pointer load per
	// delivery when no routes are installed.
	gwRoutes atomic.Pointer[[]gatewayRoute]

	// faults, when non-nil, injects wire faults on the device→gateway
	// path. One atomic pointer load per delivery when disarmed — the
	// fault-free fast path is otherwise untouched.
	faults atomic.Pointer[Faults]
	// captureOff disables the packet-capture logs: soak runs push millions
	// of packets and must stay memory-bounded, which an append-only pcap
	// defeats.
	captureOff atomic.Bool

	mu       sync.Mutex
	servers  map[netip.Addr]*Server
	captures map[CapturePoint]*Capture

	// respSeq is the server-side TCP sequence position per connection:
	// what the next synthesized response segment starts at. Keyed on the
	// forward 5-tuple; bounded like the conntrack's open table.
	respMu  sync.Mutex
	respSeq map[respKey]uint32
}

// NewNetwork builds a testbed with the given NIC mode and latency model.
func NewNetwork(nic NICMode, model LatencyModel) *Network {
	return &Network{
		Clock:               NewClock(),
		Model:               model,
		NIC:                 nic,
		BorderFilterEnabled: true,
		servers:             make(map[netip.Addr]*Server),
		captures: map[CapturePoint]*Capture{
			CaptureDeviceEgress: {},
			CapturePostGateway:  {},
		},
		respSeq: make(map[respKey]uint32),
	}
}

// gatewayRoute binds a device source subnet to its enforcement point.
type gatewayRoute struct {
	prefix netip.Prefix
	gw     *Gateway
}

// AddGatewayRoute routes traffic whose source lies in prefix through gw —
// the fleet's subnet topology. Routes are longest-prefix matched; sources
// outside every route fall back to the legacy Gateway field. Installing a
// route is copy-on-write, safe against concurrent deliveries.
func (n *Network) AddGatewayRoute(prefix netip.Prefix, gw *Gateway) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var routes []gatewayRoute
	if rp := n.gwRoutes.Load(); rp != nil {
		routes = append(routes, *rp...)
	}
	routes = append(routes, gatewayRoute{prefix: prefix.Masked(), gw: gw})
	n.gwRoutes.Store(&routes)
}

// GatewayFor resolves the gateway that fronts a device source address:
// the longest matching installed route, else the legacy Gateway field.
func (n *Network) GatewayFor(src netip.Addr) *Gateway {
	if rp := n.gwRoutes.Load(); rp != nil {
		routes := *rp
		best := -1
		for i := range routes {
			if routes[i].prefix.Contains(src) && (best < 0 || routes[i].prefix.Bits() > routes[best].prefix.Bits()) {
				best = i
			}
		}
		if best >= 0 {
			return routes[best].gw
		}
	}
	return n.Gateway
}

// AddServer registers an endpoint.
func (n *Network) AddServer(s *Server) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.servers[s.Addr] = s
}

// ServerAt returns the server at an address.
func (n *Network) ServerAt(addr netip.Addr) (*Server, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.servers[addr]
	return s, ok
}

// CaptureAt returns the capture log for a point.
func (n *Network) CaptureAt(p CapturePoint) *Capture {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.captures[p]
}

// SetCapture enables or disables the packet-capture logs. Long-running
// soak harnesses disable them: each capture clones every packet, which is
// unbounded memory over millions of deliveries.
func (n *Network) SetCapture(enabled bool) {
	n.captureOff.Store(!enabled)
}

// InstallFaults arms a fault plan on the device→gateway wire and returns
// the armed instance (for its Stats). Replaces any previous plan.
func (n *Network) InstallFaults(plan FaultPlan) *Faults {
	f := NewFaults(plan)
	n.faults.Store(f)
	return f
}

// ClearFaults disarms fault injection (the pre-fault fast path returns to
// a single nil pointer load).
func (n *Network) ClearFaults() {
	n.faults.Store(nil)
}

// FaultStats snapshots the armed fault plan's counters (zero when none).
func (n *Network) FaultStats() FaultStats {
	if f := n.faults.Load(); f != nil {
		return f.Stats()
	}
	return FaultStats{}
}

// ErrNoRoute reports delivery to an unregistered address.
var ErrNoRoute = errors.New("netsim: no route to host")

// Delivery is the fate of one packet pushed through the network.
type Delivery struct {
	// Delivered reports whether the packet reached its server.
	Delivered bool
	// Stage is where the packet died when not delivered.
	Stage DropStage
	// Enforcement is the Policy Enforcer's result when that stage ran.
	Enforcement *enforcer.Result
	// Response is the server's reply (nil when dropped or non-HTTP).
	Response *httpsim.Response
	// Datagram is the server's UDP reply (a DNS answer, typically); nil
	// when the packet carried no datagram or the server has no UDPHandler.
	Datagram []byte
	// ResponseDropped reports that the server produced a response but the
	// gateway's response-direction verdict state dropped it on the way
	// back in (sequence-continuity violation); Response is nil then.
	ResponseDropped bool
	// Latency is the virtual one-way + response time charged.
	Latency time.Duration
}

// Deliver pushes one device-egress packet through NIC → gateway → border →
// server, charging virtual time for each stage, and returns what happened.
// It is DeliverBatch of one packet.
func (n *Network) Deliver(pkt *ipv4.Packet) Delivery {
	one := [1]*ipv4.Packet{pkt}
	return n.deliverBatch(one[:], false)[0]
}

// serveOne is the post-gateway delivery tail of one packet: post-gateway
// capture, route lookup, RFC 7126 border filtering, wire/server
// virtual-time charges, and the application response. Packets carrying a transport header are served through it —
// HTTP requests out of TCP data segments (control segments deliver with
// no response), UDP datagrams through the server's UDPHandler. Flow
// lifecycle for those is the gateway conntrack's job, so connClosed is
// always false for them. Legacy plain payloads keep the pre-transport
// behaviour: the HTTP request is parsed straight out of the IPv4 payload
// and connClosed reports its "Connection: close" — the fallback signal
// the network still uses to tear down legacy flows.
func (n *Network) serveOne(cur *ipv4.Packet, d *Delivery) (connClosed bool) {
	n.captureAt(CapturePostGateway, cur)

	n.mu.Lock()
	srv, ok := n.servers[cur.Header.Dst]
	n.mu.Unlock()
	if !ok {
		d.Stage = StageNoRoute
		return false
	}

	// RFC 7126 filtering on the public path.
	if n.BorderFilterEnabled && !srv.Internal {
		if ipv4.BorderFilter(cur) == ipv4.BorderDrop {
			d.Stage = StageBorder
			return false
		}
	}

	n.Clock.Advance(n.Model.WireRTT / 2)
	served := false
	if info, ok := transport.PeekPacket(cur); ok {
		switch info.Proto {
		case ipv4.ProtoTCP:
			// Full validation (checksum included) before trusting the
			// payload; a segment that fails it falls back to the legacy
			// parse below.
			if seg, err := transport.ParseTCP(cur.Payload); err == nil {
				served = true
				if len(seg.Payload) > 0 {
					if req, err := httpsim.ParseRequest(seg.Payload); err == nil {
						n.serveRequest(srv, req, d)
					}
				}
				// SYN/FIN/RST carry no request: delivered, nothing served.
			}
		case ipv4.ProtoUDP:
			if dg, err := transport.ParseUDP(cur.Payload); err == nil {
				served = true
				n.chargeServer(srv, len(dg.Payload))
				if srv.UDPHandler != nil {
					d.Datagram = srv.UDPHandler(dg.Payload)
				}
			}
		}
	}
	if !served {
		// Legacy plain payload: HTTP straight in the IPv4 payload, flow
		// teardown driven by the application-layer close announcement.
		if req, err := httpsim.ParseRequest(cur.Payload); err == nil {
			n.serveRequest(srv, req, d)
			connClosed = !req.KeepAlive
		}
	}
	n.Clock.Advance(n.Model.WireRTT / 2)
	d.Delivered = true
	return connClosed
}

// chargeServer advances server virtual time and counts one request of
// rxBytes received body bytes — shared by the HTTP and UDP serve paths.
func (n *Network) chargeServer(srv *Server, rxBytes int) {
	n.Clock.Advance(n.Model.ServerProcessing)
	srv.mu.Lock()
	srv.requests++
	srv.rxBytes += uint64(rxBytes)
	srv.mu.Unlock()
}

// serveRequest charges server time, counts the request, and produces the
// HTTP response.
func (n *Network) serveRequest(srv *Server, req *httpsim.Request, d *Delivery) {
	n.chargeServer(srv, len(req.Body))
	if srv.Handler != nil {
		d.Response = srv.Handler(req)
	}
}

// DeliverBatch pushes a burst of device-egress packets through the
// network in one gateway drain: the per-packet NIC and queue-hop costs
// are charged for the whole burst up front (the batch crosses into user
// space once), the gateway's per-core worker pool enforces the burst, and
// the survivors are then served in order. Deliveries align with pkts;
// each Latency spans the whole burst window, matching how a batched queue
// reader delays individual packets until its drain completes.
//
// With a fault plan armed, faults apply per packet on the wire view of the
// burst before the gateway drain: drops remove packets (StageFault; the
// device-egress capture still logs them, since they left the device),
// duplicates insert extra copies, corruption/truncation damage payload
// clones, reorders swap wire neighbours, and delays stretch the burst
// window in virtual time. Deliveries still align one-to-one with pkts —
// a duplicate's extra outcome is discarded, a reordered packet reports
// its own fate wherever it landed on the wire.
func (n *Network) DeliverBatch(pkts []*ipv4.Packet) []Delivery {
	return n.deliverBatch(pkts, false)
}

// deliverBatch implements DeliverBatch; skipGateway models paths (like
// the mobile carrier) that never touch the corporate perimeter — neither
// its wire faults nor its gateways.
func (n *Network) deliverBatch(pkts []*ipv4.Packet, skipGateway bool) []Delivery {
	f := n.faults.Load()
	if f == nil || skipGateway || len(pkts) == 0 {
		return n.deliverBatchCore(pkts, skipGateway)
	}
	out := make([]Delivery, len(pkts))
	// Build the wire view: what the gateway-side of the link actually
	// carries. origIdx maps each wire slot back to its input packet (-1
	// for injected duplicates).
	wire := make([]*ipv4.Packet, 0, len(pkts)+len(pkts)/8+1)
	origIdx := make([]int, 0, cap(wire))
	var delay time.Duration
	for i, pkt := range pkts {
		if f.rollDrop() {
			n.captureAt(CaptureDeviceEgress, pkt)
			out[i] = Delivery{Stage: StageFault}
			continue
		}
		delay += f.rollDelay()
		cur := pkt
		if m := f.mutate(pkt); m != nil {
			cur = m
		}
		wire = append(wire, cur)
		origIdx = append(origIdx, i)
		if f.rollDup() {
			wire = append(wire, cur)
			origIdx = append(origIdx, -1)
		}
	}
	// Reorder by adjacent swap: each firing exchanges a packet with its
	// wire predecessor — enough to put a FIN ahead of its data segment or
	// a data segment ahead of its SYN, the cases teardown and establishment
	// must tolerate.
	for j := 1; j < len(wire); j++ {
		if f.rollReorder() {
			wire[j-1], wire[j] = wire[j], wire[j-1]
			origIdx[j-1], origIdx[j] = origIdx[j], origIdx[j-1]
		}
	}
	n.Clock.Advance(delay)
	res := n.deliverBatchCore(wire, false)
	for j, d := range res {
		if origIdx[j] >= 0 {
			out[origIdx[j]] = d
		}
	}
	return out
}

// deliverBatchCore is the fault-free pipeline; skipGateway routes every
// packet straight to the border and its server.
func (n *Network) deliverBatchCore(pkts []*ipv4.Packet, skipGateway bool) []Delivery {
	out := make([]Delivery, len(pkts))
	if len(pkts) == 0 {
		return out
	}
	start := n.Clock.Now()
	for _, pkt := range pkts {
		n.captureAt(CaptureDeviceEgress, pkt)
	}
	perNIC := n.Model.TapPerPacket
	if n.NIC == ModeSLIRP {
		perNIC = n.Model.SlirpPerPacket
	}
	n.Clock.Advance(perNIC * time.Duration(len(pkts)))

	// Partition the burst per owning gateway (subnet routing); the
	// zero-route topology is one group on the legacy Gateway field. Each
	// gateway's queue reader crosses into user space once per burst, then
	// charges its per-packet enforcement/sanitizing costs and drains its
	// slice through its own per-core worker pool.
	outcomes := make([]BatchOutcome, len(pkts))
	var groups []gwGroup
	if skipGateway {
		for i, pkt := range pkts {
			outcomes[i] = BatchOutcome{Out: pkt}
		}
	} else {
		groups = n.partitionByGateway(pkts)
	}
	for gi := range groups {
		g := &groups[gi]
		if g.gw == nil || !g.gw.Active() {
			for _, i := range g.idx {
				outcomes[i] = BatchOutcome{Out: pkts[i]}
			}
			continue
		}
		n.Clock.Advance(n.Model.NFQueueHopPerPacket)
		per := time.Duration(0)
		if g.gw.HasEnforcer() {
			per += n.Model.EnforcerPerPacket
		}
		if g.gw.HasSanitizer() {
			per += n.Model.SanitizerPerPacket
		}
		n.Clock.Advance(per * time.Duration(len(g.pkts)))
		res, _ := g.gw.ProcessBatch(g.pkts)
		for j, i := range g.idx {
			outcomes[i] = res[j]
		}
	}

	for i := range pkts {
		o := outcomes[i]
		out[i].Enforcement = o.Result
		if o.Out == nil {
			out[i].Stage = StageGateway
			continue
		}
		closed := n.serveOne(o.Out, &out[i])
		if skipGateway || (out[i].Response == nil && !closed) {
			continue // nothing returns through the gateway
		}
		gw := n.GatewayFor(pkts[i].Header.Src)
		if gw == nil || !gw.Active() {
			continue
		}
		n.checkResponse(gw, pkts[i], &out[i])
		if closed {
			// Legacy-payload fallback only: a plain-HTTP connection
			// announced its end via "Connection: close", so tear the
			// flow's cached verdict down (the sanitized copy lost its tag,
			// so the teardown keys on the still-tagged device-egress
			// packet). Transport flows never reach here — the gateway's
			// conntrack already handled their FIN/RST.
			gw.CloseFlow(pkts[i])
		}
	}
	// The responses traverse the gateway's queue on the way back in
	// (conntrack reinjection into the same NFQUEUE reader): one hop per
	// gateway that delivered at least one packet of the burst.
	for gi := range groups {
		if g := &groups[gi]; g.gw != nil && g.gw.Active() && anyDelivered(out, g.idx) {
			n.Clock.Advance(n.Model.NFQueueHopPerPacket)
		}
	}
	total := n.Clock.Now() - start
	for i := range out {
		out[i].Latency = total
	}
	return out
}

// anyDelivered reports whether any of the indexed deliveries reached its
// server.
func anyDelivered(out []Delivery, idx []int) bool {
	for _, i := range idx {
		if out[i].Delivered {
			return true
		}
	}
	return false
}

// gwGroup is one gateway's slice of a burst: the packets it fronts and
// their indices in the original order.
type gwGroup struct {
	gw   *Gateway
	idx  []int
	pkts []*ipv4.Packet
}

// partitionByGateway splits a burst by owning gateway, preserving each
// packet's burst index so outcomes land back in order. Without installed
// routes the whole burst is one group on the legacy Gateway field, with
// the input slice reused as-is.
func (n *Network) partitionByGateway(pkts []*ipv4.Packet) []gwGroup {
	if n.gwRoutes.Load() == nil {
		idx := make([]int, len(pkts))
		for i := range idx {
			idx[i] = i
		}
		return []gwGroup{{gw: n.Gateway, idx: idx, pkts: pkts}}
	}
	var groups []gwGroup
	last := -1 // bursts are usually runs of same-subnet packets
	for i, pkt := range pkts {
		gw := n.GatewayFor(pkt.Header.Src)
		at := -1
		if last >= 0 && groups[last].gw == gw {
			at = last
		} else {
			for gi := range groups {
				if groups[gi].gw == gw {
					at = gi
					break
				}
			}
			if at < 0 {
				groups = append(groups, gwGroup{gw: gw})
				at = len(groups) - 1
			}
		}
		groups[at].idx = append(groups[at].idx, i)
		groups[at].pkts = append(groups[at].pkts, pkt)
		last = at
	}
	return groups
}

// respKey identifies a connection's server-side sequence state: the
// forward 5-tuple as the gateway observed it.
type respKey struct {
	src, dst         netip.Addr
	srcPort, dstPort uint16
}

// maxRespTracked bounds the response-sequence map, matching the
// conntrack's open-table bound; at the cap an arbitrary entry is
// evicted (the connection's next response is then re-adopted by the
// gateway's continuity check, which is the self-healing direction).
const maxRespTracked = 65536

// respISN derives a deterministic initial sequence number for a
// connection from its forward key — stable across the simulation run so
// retransmissions of the first response carry the same number.
func respISN(k respKey) uint32 {
	s4 := k.src.As4()
	d4 := k.dst.As4()
	h := uint64(0x243f6a8885a308d3)
	for _, b := range s4 {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	for _, b := range d4 {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h = (h ^ uint64(k.srcPort)<<16 ^ uint64(k.dstPort)) * 0x100000001b3
	return uint32(h>>32) ^ uint32(h)
}

// checkResponse synthesizes the server's reply as a wire segment on the
// return path and runs it through the owning gateway's response-direction
// verdict state. Only transport-era TCP requests have a modelled return
// path; legacy plain payloads and UDP pass as before. A response the
// gateway refuses (sequence-continuity violation — in practice only when
// an injection is simulated) is removed from the delivery.
func (n *Network) checkResponse(gw *Gateway, fwd *ipv4.Packet, d *Delivery) {
	if d.Response == nil {
		return
	}
	info, ok := transport.PeekPacket(fwd)
	if !ok || info.Proto != ipv4.ProtoTCP {
		return
	}
	resp := n.responsePacket(fwd, info, d.Response.Body)
	if !gw.ProcessResponse(resp) {
		d.ResponseDropped = true
		d.Response = nil
	}
}

// responsePacket builds the server→device segment carrying a response
// body, advancing the connection's server-side sequence position.
func (n *Network) responsePacket(fwd *ipv4.Packet, info transport.Info, body []byte) *ipv4.Packet {
	k := respKey{
		src: fwd.Header.Src, dst: fwd.Header.Dst,
		srcPort: info.SrcPort, dstPort: info.DstPort,
	}
	n.respMu.Lock()
	seq, tracked := n.respSeq[k]
	if !tracked {
		if len(n.respSeq) >= maxRespTracked {
			for victim := range n.respSeq {
				delete(n.respSeq, victim)
				break
			}
		}
		seq = respISN(k)
	}
	n.respSeq[k] = seq + uint32(len(body))
	n.respMu.Unlock()

	seg := transport.TCPSegment{
		SrcPort: info.DstPort,
		DstPort: info.SrcPort,
		Seq:     seq,
		Flags:   transport.FlagPSH | transport.FlagACK,
		Payload: body,
	}
	return &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      fwd.Header.Dst,
			Dst:      fwd.Header.Src,
		},
		Payload: seg.Marshal(),
	}
}

func (n *Network) captureAt(p CapturePoint, pkt *ipv4.Packet) {
	if n.captureOff.Load() {
		return
	}
	n.mu.Lock()
	c := n.captures[p]
	n.mu.Unlock()
	if c != nil {
		c.Append(pkt)
	}
}
