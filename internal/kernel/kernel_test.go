package kernel

import (
	"errors"
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/transport"
)

func addrPort(a string, p uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr(a), p)
}

func newConnected(t *testing.T, k *Kernel) int {
	t.Helper()
	fd := k.Socket(10001, ipv4.ProtoTCP)
	if err := k.Connect(fd, addrPort("10.0.0.5", 40000), addrPort("93.184.216.34", 80)); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return fd
}

func TestSocketLifecycle(t *testing.T) {
	k := New(Config{})
	fd := k.Socket(10001, ipv4.ProtoTCP)
	if fd < 3 {
		t.Fatalf("fd = %d, want >= 3", fd)
	}
	s, err := k.GetSocket(fd)
	if err != nil || s.State != SockCreated {
		t.Fatalf("state = %v err = %v", s.State, err)
	}
	if err := k.Connect(fd, addrPort("10.0.0.5", 40000), addrPort("1.2.3.4", 80)); err != nil {
		t.Fatal(err)
	}
	if err := k.Connect(fd, addrPort("10.0.0.5", 40001), addrPort("1.2.3.4", 80)); !errors.Is(err, ErrIsConnected) {
		t.Fatalf("double connect: %v", err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("double close: %v", err)
	}
	if err := k.Connect(fd, addrPort("10.0.0.5", 40001), addrPort("1.2.3.4", 80)); !errors.Is(err, ErrBadFD) {
		t.Fatalf("connect after close: %v", err)
	}
	if _, err := k.Send(fd, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("send after close: %v", err)
	}
}

// TestCloseReleasesSockets: a closed socket leaves the table, so a
// device's connection churn does not keep every Socket and its IP options
// alive; a second Close still reports EBADF.
func TestCloseReleasesSockets(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	tagOpt := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{1, 2, 3}}}
	fds := make([]int, 0, 1000)
	for i := 0; i < 1000; i++ {
		fd := newConnected(t, k)
		if err := k.SetIPOptions(fd, 0, tagOpt); err != nil {
			t.Fatal(err)
		}
		if err := k.Close(fd); err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	if n := len(k.sockets); n != 0 {
		t.Fatalf("socket table holds %d closed sockets, want 0", n)
	}
	for _, fd := range fds[:10] {
		if err := k.Close(fd); !errors.Is(err, ErrBadFD) {
			t.Fatalf("double close of fd %d: %v", fd, err)
		}
	}
}

func TestSendRequiresConnect(t *testing.T) {
	k := New(Config{})
	fd := k.Socket(10001, ipv4.ProtoTCP)
	if _, err := k.Send(fd, []byte("x")); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v, want ENOTCONN", err)
	}
}

func TestSetIPOptionsPermissionModel(t *testing.T) {
	// Unpatched kernel: unprivileged caller gets EPERM, CAP_NET_ADMIN works.
	k := New(Config{AllowUnprivilegedIPOptions: false})
	fd := newConnected(t, k)
	opt := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{1, 2, 3}}}
	if err := k.SetIPOptions(fd, 0, opt); !errors.Is(err, ErrPermission) {
		t.Fatalf("unprivileged on unpatched kernel: %v", err)
	}
	if err := k.SetIPOptions(fd, CapNetAdmin, opt); err != nil {
		t.Fatalf("privileged on unpatched kernel: %v", err)
	}
	st := k.Stats()
	if st.SetoptDenied != 1 || st.SetoptCalls != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Patched kernel: unprivileged caller succeeds (the paper's one-line patch).
	kp := New(Config{AllowUnprivilegedIPOptions: true})
	fd2 := newConnected(t, kp)
	if err := kp.SetIPOptions(fd2, 0, opt); err != nil {
		t.Fatalf("unprivileged on patched kernel: %v", err)
	}
}

func TestSetOnceHardeningBlocksReplay(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true, SetOptionsOncePerSocket: true})
	fd := newConnected(t, k)
	benign := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{0xaa}}}
	if err := k.SetIPOptions(fd, 0, benign); err != nil {
		t.Fatal(err)
	}
	// A malicious function replaying a benign tag must be rejected.
	replay := []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{0xbb}}}
	if err := k.SetIPOptions(fd, 0, replay); !errors.Is(err, ErrOptionSealed) {
		t.Fatalf("replay: %v", err)
	}
	// The original tag survives.
	s, _ := k.GetSocket(fd)
	if len(s.Options) != 1 || s.Options[0].Data[0] != 0xaa {
		t.Fatalf("options = %+v", s.Options)
	}
	// Without hardening, overwrite is allowed (prototype behaviour).
	k2 := New(Config{AllowUnprivilegedIPOptions: true})
	fd2 := newConnected(t, k2)
	if err := k2.SetIPOptions(fd2, 0, benign); err != nil {
		t.Fatal(err)
	}
	if err := k2.SetIPOptions(fd2, 0, replay); err != nil {
		t.Fatalf("prototype kernel must allow overwrite: %v", err)
	}
}

func TestSetIPOptionsSizeLimit(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)
	big := []ipv4.Option{{Type: ipv4.OptSecurity, Data: make([]byte, 39)}}
	if err := k.SetIPOptions(fd, 0, big); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized options: %v", err)
	}
}

func TestSendStampsOptions(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)
	if err := k.SetIPOptions(fd, 0, []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{7, 8, 9}}}); err != nil {
		t.Fatal(err)
	}
	pkt, err := k.Send(fd, []byte("GET /"))
	if err != nil {
		t.Fatal(err)
	}
	if pkt == nil {
		t.Fatal("packet dropped unexpectedly")
	}
	opt, ok := pkt.Header.FindOption(ipv4.OptSecurity)
	if !ok || len(opt.Data) != 3 {
		t.Fatalf("options not stamped: %+v", pkt.Header.Options)
	}
	if pkt.Header.Src != netip.MustParseAddr("10.0.0.5") || pkt.Header.Dst != netip.MustParseAddr("93.184.216.34") {
		t.Fatal("addresses wrong")
	}
	// IP IDs increment per packet.
	pkt2, _ := k.Send(fd, []byte("GET /2"))
	if pkt2.Header.ID == pkt.Header.ID {
		t.Fatal("IP ID did not advance")
	}
}

func TestNetfilterQueueVerdicts(t *testing.T) {
	// RawPayloads keeps the payload bytes literal so the queue handler can
	// match on them; netfilter mechanics are identical either way.
	k := New(Config{AllowUnprivilegedIPOptions: true, RawPayloads: true})
	nf := k.Netfilter()
	var seen int
	nf.RegisterBatchQueue(1, perPacket(func(pkt *ipv4.Packet) (Verdict, *ipv4.Packet) {
		seen++
		if string(pkt.Payload) == "drop-me" {
			return VerdictDrop, nil
		}
		return VerdictAccept, nil
	}))
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 1, Comment: "to enforcer"})

	fd := newConnected(t, k)
	if pkt, err := k.Send(fd, []byte("keep-me")); err != nil || pkt == nil {
		t.Fatalf("accept path: pkt=%v err=%v", pkt, err)
	}
	if pkt, err := k.Send(fd, []byte("drop-me")); err != nil || pkt != nil {
		t.Fatalf("drop path: pkt=%v err=%v", pkt, err)
	}
	if seen != 2 {
		t.Fatalf("queue handler saw %d packets, want 2", seen)
	}
	st := nf.Stats()
	if st.Dropped != 1 {
		t.Fatalf("filter stats = %+v", st)
	}
}

func TestNetfilterQueueRewrite(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	nf := k.Netfilter()
	// A sanitizer-style handler on POSTROUTING strips options.
	nf.RegisterBatchQueue(2, perPacket(func(pkt *ipv4.Packet) (Verdict, *ipv4.Packet) {
		c := pkt.Clone()
		c.Header.RemoveOption(ipv4.OptSecurity)
		return VerdictAccept, c
	}))
	nf.Append(ChainPostrouting, Rule{Target: TargetQueue, QueueNum: 2, Comment: "to sanitizer"})

	fd := newConnected(t, k)
	if err := k.SetIPOptions(fd, 0, []ipv4.Option{{Type: ipv4.OptSecurity, Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	pkt, err := k.Send(fd, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if pkt == nil || pkt.Header.HasOptions() {
		t.Fatalf("sanitizer rewrite not applied: %+v", pkt)
	}
}

func TestNetfilterDeadQueueDrops(t *testing.T) {
	k := New(Config{})
	nf := k.Netfilter()
	nf.Append(ChainOutput, Rule{Target: TargetQueue, QueueNum: 9})
	fd := newConnected(t, k)
	if _, err := k.Send(fd, []byte("x")); !errors.Is(err, ErrNoQueueHandler) {
		t.Fatalf("dead queue: %v", err)
	}
	// Registering then unregistering restores the failure.
	nf.RegisterBatchQueue(9, perPacket(func(p *ipv4.Packet) (Verdict, *ipv4.Packet) { return VerdictAccept, nil }))
	if pkt, err := k.Send(fd, []byte("x")); err != nil || pkt == nil {
		t.Fatalf("live queue: %v", err)
	}
	nf.UnregisterQueue(9)
	if _, err := k.Send(fd, []byte("x")); !errors.Is(err, ErrNoQueueHandler) {
		t.Fatalf("unregistered queue: %v", err)
	}
}

func TestNetfilterRuleMatchAndTargets(t *testing.T) {
	k := New(Config{RawPayloads: true})
	nf := k.Netfilter()
	onlyBig := func(p *ipv4.Packet) bool { return len(p.Payload) > 10 }
	nf.Append(ChainOutput, Rule{Match: onlyBig, Target: TargetDrop, Comment: "drop big"})
	fd := newConnected(t, k)
	if pkt, _ := k.Send(fd, []byte("small")); pkt == nil {
		t.Fatal("small packet dropped")
	}
	if pkt, _ := k.Send(fd, []byte("a very large payload")); pkt != nil {
		t.Fatal("big packet passed")
	}
	// TargetAccept short-circuits later rules.
	nf.Flush(ChainOutput)
	nf.Append(ChainOutput, Rule{Target: TargetAccept})
	nf.Append(ChainOutput, Rule{Target: TargetDrop})
	if pkt, _ := k.Send(fd, []byte("x")); pkt == nil {
		t.Fatal("accept did not short-circuit")
	}
}

func TestChainAndVerdictStrings(t *testing.T) {
	if ChainOutput.String() != "OUTPUT" || ChainPostrouting.String() != "POSTROUTING" {
		t.Error("chain names")
	}
	if VerdictAccept.String() != "NF_ACCEPT" || VerdictDrop.String() != "NF_DROP" {
		t.Error("verdict names")
	}
}

func TestFDsAreUniquePerKernel(t *testing.T) {
	k := New(Config{})
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		fd := k.Socket(10001, ipv4.ProtoTCP)
		if seen[fd] {
			t.Fatalf("fd %d reused while open", fd)
		}
		seen[fd] = true
	}
}

func TestSendWrapsTCPSegment(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)
	pkt, err := k.Send(fd, []byte("GET / HTTP/1.1\r\n\r\n"))
	if err != nil || pkt == nil {
		t.Fatalf("send: pkt=%v err=%v", pkt, err)
	}
	seg, err := transport.ParseTCP(pkt.Payload)
	if err != nil {
		t.Fatalf("payload is not a TCP segment: %v", err)
	}
	if seg.SrcPort != 40000 || seg.DstPort != 80 {
		t.Fatalf("segment ports %d->%d, want 40000->80", seg.SrcPort, seg.DstPort)
	}
	if seg.Flags != transport.FlagPSH|transport.FlagACK {
		t.Fatalf("data segment flags %#02x", seg.Flags)
	}
	if string(seg.Payload) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("segment payload %q", seg.Payload)
	}
	// Sequence numbers advance by payload length across sends.
	pkt2, _ := k.Send(fd, []byte("x"))
	seg2, err := transport.ParseTCP(pkt2.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if seg2.Seq != seg.Seq+uint32(len(seg.Payload)) {
		t.Fatalf("seq %d after %d+%d", seg2.Seq, seg.Seq, len(seg.Payload))
	}
}

func TestConnectionLifecycleSegments(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := newConnected(t, k)

	syn, err := k.Handshake(fd)
	if err != nil || syn == nil {
		t.Fatalf("handshake: pkt=%v err=%v", syn, err)
	}
	seg, err := transport.ParseTCP(syn.Payload)
	if err != nil || seg.Flags != transport.FlagSYN || len(seg.Payload) != 0 {
		t.Fatalf("SYN segment = %+v err=%v", seg, err)
	}
	// Handshake is idempotent: the SYN goes out once.
	if again, err := k.Handshake(fd); err != nil || again != nil {
		t.Fatalf("second handshake: pkt=%v err=%v", again, err)
	}

	data, err := k.Send(fd, []byte("payload"))
	if err != nil || data == nil {
		t.Fatal("send after handshake failed")
	}
	dseg, _ := transport.ParseTCP(data.Payload)
	if dseg.Seq != seg.Seq+1 {
		t.Fatalf("data seq %d, want ISN+1 = %d (SYN consumes one)", dseg.Seq, seg.Seq+1)
	}

	fin, err := k.Shutdown(fd)
	if err != nil || fin == nil {
		t.Fatalf("shutdown: pkt=%v err=%v", fin, err)
	}
	fseg, err := transport.ParseTCP(fin.Payload)
	if err != nil || fseg.Flags != transport.FlagFIN|transport.FlagACK {
		t.Fatalf("FIN segment = %+v err=%v", fseg, err)
	}
	// Half-closed: no data after FIN, and the FIN goes out once.
	if _, err := k.Send(fd, []byte("late")); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("send after FIN: %v", err)
	}
	if again, err := k.Shutdown(fd); err != nil || again != nil {
		t.Fatalf("second shutdown: pkt=%v err=%v", again, err)
	}
}

func TestUDPSocketsWrapDatagrams(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := k.Socket(10001, ipv4.ProtoUDP)
	if err := k.Connect(fd, addrPort("10.0.0.5", 40002), addrPort("10.66.0.53", 53)); err != nil {
		t.Fatal(err)
	}
	// No handshake and no teardown segments on UDP.
	if pkt, err := k.Handshake(fd); err != nil || pkt != nil {
		t.Fatalf("UDP handshake: pkt=%v err=%v", pkt, err)
	}
	pkt, err := k.Send(fd, []byte("dns-query"))
	if err != nil || pkt == nil {
		t.Fatal("UDP send failed")
	}
	if pkt.Header.Protocol != ipv4.ProtoUDP {
		t.Fatalf("protocol = %d", pkt.Header.Protocol)
	}
	dg, err := transport.ParseUDP(pkt.Payload)
	if err != nil {
		t.Fatalf("payload is not a UDP datagram: %v", err)
	}
	if dg.SrcPort != 40002 || dg.DstPort != 53 || string(dg.Payload) != "dns-query" {
		t.Fatalf("datagram = %+v", dg)
	}
	if pkt, err := k.Shutdown(fd); err != nil || pkt != nil {
		t.Fatalf("UDP shutdown: pkt=%v err=%v", pkt, err)
	}
}

func TestRawPayloadsLegacyMode(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true, RawPayloads: true})
	fd := newConnected(t, k)
	if pkt, err := k.Handshake(fd); err != nil || pkt != nil {
		t.Fatalf("legacy handshake: pkt=%v err=%v", pkt, err)
	}
	pkt, err := k.Send(fd, []byte("GET / HTTP/1.1\r\n\r\n"))
	if err != nil || pkt == nil {
		t.Fatal("legacy send failed")
	}
	if string(pkt.Payload) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("legacy payload wrapped: %q", pkt.Payload)
	}
	if pkt, err := k.Shutdown(fd); err != nil || pkt != nil {
		t.Fatalf("legacy shutdown: pkt=%v err=%v", pkt, err)
	}
}

func TestUDPSendRejectsOversizedPayload(t *testing.T) {
	k := New(Config{AllowUnprivilegedIPOptions: true})
	fd := k.Socket(10001, ipv4.ProtoUDP)
	if err := k.Connect(fd, addrPort("10.0.0.5", 40002), addrPort("10.66.0.53", 53)); err != nil {
		t.Fatal(err)
	}
	// One byte over the 16-bit UDP length budget: EMSGSIZE, not a wrapped
	// length field.
	if _, err := k.Send(fd, make([]byte, transport.MaxUDPPayload+1)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized UDP payload: %v", err)
	}
	// Exactly at the budget still works.
	pkt, err := k.Send(fd, make([]byte, transport.MaxUDPPayload))
	if err != nil || pkt == nil {
		t.Fatalf("max-size UDP payload: pkt=%v err=%v", pkt, err)
	}
	if _, err := transport.ParseUDP(pkt.Payload); err != nil {
		t.Fatalf("max-size datagram does not parse: %v", err)
	}
}
