package netsim

import (
	"fmt"
	"time"

	"borderpatrol/internal/ipv4"
)

// Route models where a device's packets enter the network, implementing
// the paper's §VII deployment discussion: on premises every packet crosses
// the corporate gateway; off premises the BYOD framework forces
// work-profile traffic through the corporate VPN (so enforcement still
// sees it), while personal traffic rides the mobile network and never
// touches corporate infrastructure.
type Route int

// Routes.
const (
	// RouteDirect is the on-premises path through the corporate gateway.
	RouteDirect Route = iota + 1
	// RouteVPN is the off-premises work-profile path: tunnelled back to
	// the corporate gateway with added tunnel latency.
	RouteVPN
	// RouteMobile is the off-premises personal path: straight to the
	// carrier network, bypassing the corporate gateway entirely. Carrier
	// border routers still apply RFC 7126, so tagged packets leaking onto
	// this path are dropped rather than exposing context.
	RouteMobile
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RouteDirect:
		return "direct"
	case RouteVPN:
		return "vpn"
	case RouteMobile:
		return "mobile"
	default:
		return fmt.Sprintf("route(%d)", int(r))
	}
}

// VPNPerPacket is the tunnel encapsulation + backhaul cost charged per
// packet on the VPN route.
const VPNPerPacket = 12 * time.Millisecond

// MobilePerPacket is the cellular access latency on the mobile route.
const MobilePerPacket = 35 * time.Millisecond

// DeliverRoute pushes one packet along the selected route, as a burst of
// one through the same pipeline as DeliverBatch. RouteDirect is identical
// to Deliver. RouteVPN charges tunnel latency, then traverses the gateway
// as usual. RouteMobile skips the gateway but keeps the RFC 7126 border:
// the carrier drops optioned packets. The returned latency includes the
// route's access cost.
func (n *Network) DeliverRoute(pkt *ipv4.Packet, route Route) Delivery {
	start := n.Clock.Now()
	switch route {
	case RouteVPN:
		n.Clock.Advance(VPNPerPacket)
	case RouteMobile:
		n.Clock.Advance(MobilePerPacket)
	}
	one := [1]*ipv4.Packet{pkt}
	d := n.deliverBatch(one[:], route == RouteMobile)[0]
	d.Latency = n.Clock.Now() - start
	return d
}
