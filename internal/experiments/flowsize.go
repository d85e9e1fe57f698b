package experiments

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"borderpatrol/internal/android"
	"borderpatrol/internal/apkgen"
	"borderpatrol/internal/baseline"
	"borderpatrol/internal/deploy"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/netsim"
	"borderpatrol/internal/policy"
)

// FlowSizeResult reproduces the §VII empirical flow-size analysis: the
// range of legitimate single-flow request sizes (the paper observes 36 B
// to 480 MB), why that makes threshold triggers unusable, and the
// fragmentation evasion that defeats thresholds while BorderPatrol still
// detects the upload context.
type FlowSizeResult struct {
	// Flows is the number of sampled legitimate flows.
	Flows int
	// MinBytes / MaxBytes bound the sample (paper: 36 B .. 480 MB).
	MinBytes, MaxBytes int64
	// Percentiles maps {50, 90, 99} to flow size.
	Percentiles map[int]int64
	// Threshold is the byte budget the evasion demo attacks.
	Threshold int
	// MonolithicBlocked reports whether one whole-transfer upload trips
	// the threshold.
	MonolithicBlocked bool
	// FragmentedBlocked reports whether the chunked transfer trips it
	// (the evasion succeeds when false).
	FragmentedBlocked bool
	// BorderPatrolBlockedFragments counts fragmented-upload packets
	// BorderPatrol dropped (context-based, size-independent).
	BorderPatrolBlockedFragments int
	// FragmentCount is how many sockets the evasive transfer used.
	FragmentCount int
}

// RunFlowSize samples flow sizes from the corpus metadata and runs the
// threshold-evasion comparison on a scripted uploader app.
func RunFlowSize(corpus []*apkgen.App, threshold int) (*FlowSizeResult, error) {
	if corpus == nil {
		var err error
		corpus, err = apkgen.Generate(apkgen.DefaultConfig())
		if err != nil {
			return nil, err
		}
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("flowsize: invalid threshold %d", threshold)
	}
	var sizes []int64
	for _, ga := range corpus {
		sizes = append(sizes, ga.FlowSizes...)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("flowsize: corpus has no flow metadata")
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	res := &FlowSizeResult{
		Flows:       len(sizes),
		MinBytes:    sizes[0],
		MaxBytes:    sizes[len(sizes)-1],
		Percentiles: map[int]int64{},
		Threshold:   threshold,
	}
	for _, p := range []int{50, 90, 99} {
		res.Percentiles[p] = sizes[len(sizes)*p/100]
	}

	// Evasion demo: one app uploads `payload` bytes either monolithically
	// or fragmented across sockets in chunks under the threshold.
	const payload = 64 * 1024
	chunks := payload/(threshold/2) + 1
	uploader := scriptedApp("com.evil.exfil", "com/evil/exfil", []scriptedFn{
		{name: "monolithic", desirable: false, class: "Exfil", method: "uploadAll",
			op: android.NetOp{Endpoint: netip.AddrPortFrom(netip.MustParseAddr("203.0.113.99"), 443), Method: "PUT", PayloadBytes: payload}},
		{name: "fragmented", desirable: false, class: "Exfil", method: "uploadChunks",
			op: android.NetOp{Endpoint: netip.AddrPortFrom(netip.MustParseAddr("203.0.113.99"), 443), Method: "PUT", PayloadBytes: payload, Chunks: chunks}},
	})
	res.FragmentCount = chunks

	// BorderPatrol rule: deny the uploader's methods at class level.
	rules := []policy.Rule{{Action: policy.Deny, Level: policy.LevelClass, Target: "com/evil/exfil/Exfil"}}
	tb, err := NewTestbed([]*apkgen.App{uploader}, TestbedConfig{EnforcementOn: true, Rules: rules, DefaultVerdict: policy.VerdictAllow})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tbOff, err := NewTestbed([]*apkgen.App{uploader}, TestbedConfig{EnforcementOn: false})
	if err != nil {
		return nil, err
	}
	defer tbOff.Close()

	// Threshold mechanism sees the unenforced packets.
	mono, err := tbOff.Apps[0].Invoke("monolithic")
	if err != nil {
		return nil, err
	}
	frag, err := tbOff.Apps[0].Invoke("fragmented")
	if err != nil {
		return nil, err
	}
	thresh := baseline.NewFlowSizeThreshold(threshold)
	for _, pkt := range mono.Packets {
		if thresh.DecideWithPort(pkt, 1) == policy.VerdictDrop {
			res.MonolithicBlocked = true
		}
	}
	threshFrag := baseline.NewFlowSizeThreshold(threshold)
	for i, pkt := range frag.Packets {
		if threshFrag.DecideWithPort(pkt, uint16(41000+i)) == policy.VerdictDrop {
			res.FragmentedBlocked = true
		}
	}

	// BorderPatrol sees the tagged packets. Only the data packets count
	// as fragments of the transfer — each chunk's socket also emits
	// SYN/FIN control segments, which share the chunk's verdict but carry
	// no upload bytes.
	fragBP, err := tb.Apps[0].Invoke("fragmented")
	if err != nil {
		return nil, err
	}
	for _, pkt := range dataPackets(fragBP.Packets) {
		if d := tb.Network.Deliver(pkt); !d.Delivered {
			res.BorderPatrolBlockedFragments++
		}
	}
	return res, nil
}

// Format renders the flow-size analysis.
func (r *FlowSizeResult) Format() string {
	var b strings.Builder
	b.WriteString("Flow sizes and threshold evasion (§VII)\n")
	fmt.Fprintf(&b, "legitimate single-flow sizes (n=%d): min %s, p50 %s, p90 %s, p99 %s, max %s (paper: 36 B .. 480 MB)\n",
		r.Flows, fmtBytes(r.MinBytes), fmtBytes(r.Percentiles[50]), fmtBytes(r.Percentiles[90]), fmtBytes(r.Percentiles[99]), fmtBytes(r.MaxBytes))
	fmt.Fprintf(&b, "threshold mechanism (%d B budget):\n", r.Threshold)
	fmt.Fprintf(&b, "  monolithic upload blocked: %v\n", r.MonolithicBlocked)
	fmt.Fprintf(&b, "  fragmented upload (%d sockets) blocked: %v  <- evasion\n", r.FragmentCount, r.FragmentedBlocked)
	fmt.Fprintf(&b, "BorderPatrol (context rule): %d/%d fragment packets dropped irrespective of size\n",
		r.BorderPatrolBlockedFragments, r.FragmentCount)
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// ReplayResult reproduces the §VII tag-replay discussion: a malicious
// function that copies a benign tag onto its own socket succeeds on the
// prototype kernel but is defeated by the set-once hardening.
type ReplayResult struct {
	// PrototypeReplaySucceeded: without hardening the copied tag sticks.
	PrototypeReplaySucceeded bool
	// HardenedReplayRejected: with set-once, the overwrite fails.
	HardenedReplayRejected bool
	// HardenedMaliciousDelivered: with hardening, whether the malicious
	// packet still got out (it must not — it keeps its true context).
	HardenedMaliciousDelivered bool
}

// RunReplay exercises the replay scenario on both kernel configurations.
func RunReplay() (*ReplayResult, error) {
	res := &ReplayResult{}
	for _, hardened := range []bool{false, true} {
		outcome, err := replayOnce(hardened)
		if err != nil {
			return nil, err
		}
		if hardened {
			res.HardenedReplayRejected = outcome.replayRejected
			res.HardenedMaliciousDelivered = outcome.maliciousDelivered
		} else {
			res.PrototypeReplaySucceeded = !outcome.replayRejected
		}
	}
	return res, nil
}

type replayOutcome struct {
	replayRejected     bool
	maliciousDelivered bool
}

func replayOnce(hardened bool) (replayOutcome, error) {
	// An app with a benign and a malicious functionality; policy denies the
	// malicious method.
	ep := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.50"), 443)
	app := scriptedApp("com.replay.app", "com/replay/app", []scriptedFn{
		{name: "benign", desirable: true, class: "Good", method: "fetch", op: android.NetOp{Endpoint: ep, Method: "GET"}},
		{name: "malicious", desirable: false, class: "Evil", method: "exfil", op: android.NetOp{Endpoint: ep, Method: "PUT", PayloadBytes: 512}},
	})
	rules := []policy.Rule{{Action: policy.Deny, Level: policy.LevelClass, Target: "com/replay/app/Evil"}}
	// The prototype kernel is the IP options patch without the set-once
	// hardening; everything else about the two testbeds is the same.
	network := netsim.NewNetwork(netsim.ModeTAP, netsim.DefaultLatencyModel())
	tb, err := assembleTestbed([]*apkgen.App{app}, network, deploy.Config{Unhardened: !hardened, Rules: rules})
	if err != nil {
		return replayOutcome{}, err
	}
	defer tb.Close()

	// Run the benign functionality and steal its tag.
	benign, err := tb.Apps[0].Invoke("benign")
	if err != nil {
		return replayOutcome{}, err
	}
	if len(benign.Packets) == 0 {
		return replayOutcome{}, fmt.Errorf("replay: no benign packet")
	}
	stolen, ok := benign.Packets[0].Header.FindOption(ipv4.OptSecurity)
	if !ok {
		return replayOutcome{}, fmt.Errorf("replay: benign packet untagged")
	}

	// The malicious function opens its own socket (the Context Manager tags
	// it with the true Evil context at connect time), then replays the
	// stolen benign tag over it.
	dev := tb.Device
	sock := dev.Stack().NewJavaSocket(tb.Apps[0].UID)
	thread := tb.Apps[0].Thread()
	thread.PushAll([]dex.Frame{{Class: "com/replay/app/Evil", Method: "exfil", File: "Evil.java", Line: 13}})
	err = sock.Connect(ep)
	thread.PopN(1)
	if err != nil {
		return replayOutcome{}, err
	}
	replayErr := dev.Kernel().SetIPOptions(sock.FD(), 0, []ipv4.Option{stolen})
	out := replayOutcome{replayRejected: replayErr != nil}
	pkt, err := sock.Send([]byte("PUT /exfil HTTP/1.1\r\nContent-Length: 0\r\n\r\n"))
	if err != nil {
		return replayOutcome{}, err
	}
	if pkt != nil {
		d := tb.Network.Deliver(pkt)
		// With the stolen (benign) tag the packet sails through; with the
		// true context the deny rule drops it.
		out.maliciousDelivered = d.Delivered
	}
	_ = sock.Close()
	return out, nil
}

// Format renders the replay outcome.
func (r *ReplayResult) Format() string {
	var b strings.Builder
	b.WriteString("Tag replay (§VII)\n")
	fmt.Fprintf(&b, "prototype kernel: replay succeeded = %v (the documented limitation)\n", r.PrototypeReplaySucceeded)
	fmt.Fprintf(&b, "hardened kernel (set-once): replay rejected = %v, malicious packet delivered = %v\n",
		r.HardenedReplayRejected, r.HardenedMaliciousDelivered)
	return b.String()
}
