package main

import (
	"fmt"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/transport"
)

// fate is what the oracle expects to happen to one packet.
type fate struct {
	delivered bool
	// cause is the enforcer's drop cause when not delivered.
	cause enforcer.DropCause
	// response: a delivered packet carrying an HTTP request must come back
	// with the server's response.
	response bool
}

// expect predicts a packet's fate from generator truth and the policy
// revision in force, which denies vendor denied on top of the tracker
// deny list (-1: no vendor). It never looks at what the system did.
func expect(fn *funcRef, denied int, pkt *ipv4.Packet) fate {
	switch {
	case fn.native:
		return fate{cause: enforcer.DropUntagged}
	case fn.tracker:
		return fate{cause: enforcer.DropPolicy}
	case denied >= 0 && fn.vendor == denied && fn.vendorInStack:
		return fate{cause: enforcer.DropPolicy}
	}
	return fate{delivered: true, response: carriesData(pkt)}
}

// carriesData reports whether a packet is a TCP data segment (or any UDP
// datagram): the packets the server answers. SYN and FIN are delivered
// with no response.
func carriesData(pkt *ipv4.Packet) bool {
	info, ok := transport.PeekPacket(pkt)
	if !ok {
		return true
	}
	if info.Proto == ipv4.ProtoTCP {
		return len(pkt.Payload) > info.DataOff
	}
	return true
}

// check compares a delivery with the expected fate, returning a
// description of the first difference ("" when they agree).
func check(want fate, got netsim.Delivery) string {
	if want.delivered {
		switch {
		case !got.Delivered:
			cause := "no enforcement result"
			if got.Enforcement != nil {
				cause = got.Enforcement.Cause.String()
			}
			return fmt.Sprintf("want delivered, dropped at %v (%s)", got.Stage, cause)
		case want.response && (got.Response == nil || got.ResponseDropped):
			return "want a response, got none"
		}
		return ""
	}
	switch {
	case got.Delivered:
		return fmt.Sprintf("want dropped (%v), delivered", want.cause)
	case got.Stage != netsim.StageGateway:
		return fmt.Sprintf("want a gateway drop (%v), dropped at %v", want.cause, got.Stage)
	case got.Enforcement == nil:
		return fmt.Sprintf("want a gateway drop (%v), no enforcement result", want.cause)
	case got.Enforcement.Cause != want.cause:
		return fmt.Sprintf("want drop cause %v, got %v", want.cause, got.Enforcement.Cause)
	}
	return ""
}
