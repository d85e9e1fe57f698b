package dataplane

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/policy"
	"borderpatrol/internal/tag"
	"borderpatrol/internal/transport"
)

// tickClock is a hand-cranked virtual clock for TTL tests.
type tickClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *tickClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tickClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func testAPK() *dex.APK {
	return &dex.APK{
		PackageName: "com.corp.files",
		VersionCode: 1,
		Dexes: []*dex.File{{
			Classes: []dex.ClassDef{
				{
					Package: "com/corp/files",
					Name:    "SyncEngine",
					Methods: []dex.MethodDef{
						{Name: "download", Proto: "()V", File: "S.java", StartLine: 10, EndLine: 20},
						{Name: "upload", Proto: "()V", File: "S.java", StartLine: 30, EndLine: 40},
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []dex.MethodDef{
						{Name: "beacon", Proto: "()V", File: "A.java", StartLine: 5, EndLine: 15},
					},
				},
			},
		}},
	}
}

// buildEnv stands up a database, engine, and flow-cached enforcer over the
// test APK — the slow path the dataplane compiles from.
func buildEnv(t testing.TB, rules []policy.Rule, def policy.Verdict) (*enforcer.Enforcer, *analyzer.Database, *dex.APK) {
	t.Helper()
	apk := testAPK()
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	eng, err := policy.NewEngine(rules, def)
	if err != nil {
		t.Fatal(err)
	}
	enf := enforcer.New(enforcer.Config{
		Flows: enforcer.NewFlowCache(flowtable.Config{Capacity: 4096}),
	}, db, eng)
	return enf, db, apk
}

// tcpPkt builds one tagged TCP packet of a flow: fixed source, dst varied
// by dstLo, real transport header so the 5-tuple keys complete.
func tcpPkt(t testing.TB, hash dex.TruncatedHash, indexes []uint32, dstLo byte, srcPort uint16, flags byte, seq uint32, payload []byte) *ipv4.Packet {
	t.Helper()
	tg := tag.Tag{AppHash: hash, Indexes: indexes}
	opt, err := tg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	seg := transport.TCPSegment{
		SrcPort: srcPort, DstPort: 443, Seq: seq,
		Flags: flags, Window: 65535, Payload: payload,
	}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.66.0.2"),
			Dst:      netip.AddrFrom4([4]byte{93, 184, 216, dstLo}),
		},
		Payload: seg.Marshal(),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: opt})
	return pkt
}

func dataPkt(t testing.TB, hash dex.TruncatedHash, indexes []uint32, dstLo byte, srcPort uint16) *ipv4.Packet {
	return tcpPkt(t, hash, indexes, dstLo, srcPort, transport.FlagPSH|transport.FlagACK, 1000, []byte("POST /x HTTP/1.1\r\n\r\n"))
}

// processAndPromote runs the slow path for one packet and promotes the
// outcome, exactly as the netfilter batch branch does on a miss.
func processAndPromote(enf *enforcer.Enforcer, core kernel.DataplaneCore, pkt *ipv4.Packet) enforcer.Result {
	res := enf.Process(pkt)
	v := kernel.VerdictAccept
	if res.Verdict == policy.VerdictDrop {
		v = kernel.VerdictDrop
	}
	core.Promote(pkt, v, &res)
	return res
}

// denyFlurry is the library rule set: verdicts depend on the stack, so
// nothing is hash-decisive and the compiled rule stage stays empty.
func denyFlurry() []policy.Rule {
	return []policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}}
}

func TestMissPromoteHitRoundTrip(t *testing.T) {
	enf, _, apk := buildEnv(t, denyFlurry(), policy.VerdictAllow)
	dp := New(Config{Cores: 1}, enf)
	core := dp.Acquire()
	if core == nil {
		t.Fatal("no core")
	}
	defer core.Release()

	allow := dataPkt(t, apk.Truncated(), []uint32{0}, 34, 40001)
	deny := dataPkt(t, apk.Truncated(), []uint32{2, 0}, 34, 40002)

	if _, _, ok := core.Probe(allow); ok {
		t.Fatal("empty table answered")
	}
	// The probe window has room, so the first promotion lands: the
	// doorkeeper only gates evictions.
	processAndPromote(enf, core, allow)
	if st := dp.Stats(); st.Promotions != 1 || st.AdmissionSkips != 0 {
		t.Fatalf("after first promote: %+v", st)
	}

	v, aux, ok := core.Probe(allow)
	if !ok || v != kernel.VerdictAccept {
		t.Fatalf("hit = %v, %v", v, ok)
	}
	res, isRes := aux.(*enforcer.Result)
	if !isRes || res.Verdict != policy.VerdictAllow || res.Cause != enforcer.DropNone {
		t.Fatalf("hit aux = %+v", aux)
	}

	// The deny flow promotes and hits with its cause intact.
	processAndPromote(enf, core, deny)
	v, aux, ok = core.Probe(deny)
	if !ok || v != kernel.VerdictDrop {
		t.Fatalf("deny hit = %v, %v", v, ok)
	}
	if res := aux.(*enforcer.Result); res.Cause != enforcer.DropPolicy {
		t.Fatalf("deny cause = %v", res.Cause)
	}
}

// TestDoorkeeperGatesOnlyEvictions: on an eight-slot table (one probe
// window) the first eight flows land on their first miss; a ninth, which
// would evict a live entry, is refused on its first miss and admitted on
// its second, evicting the oldest.
func TestDoorkeeperGatesOnlyEvictions(t *testing.T) {
	enf, _, apk := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 1, Entries: 8}, enf)
	core := dp.Acquire()
	defer core.Release()

	var flows []*ipv4.Packet
	for i := 0; i < 9; i++ {
		flows = append(flows, dataPkt(t, apk.Truncated(), []uint32{0}, 34, uint16(40001+i)))
	}
	for _, pkt := range flows[:8] {
		processAndPromote(enf, core, pkt)
	}
	if st := dp.Stats(); st.Promotions != 8 || st.AdmissionSkips != 0 {
		t.Fatalf("filling the window: %+v", st)
	}
	processAndPromote(enf, core, flows[8])
	if st := dp.Stats(); st.Promotions != 8 || st.AdmissionSkips != 1 {
		t.Fatalf("first miss into a full window: %+v", st)
	}
	for _, pkt := range flows[:8] {
		if _, _, ok := core.Probe(pkt); !ok {
			t.Fatal("a refused admission evicted a live entry")
		}
	}
	processAndPromote(enf, core, flows[8])
	if st := dp.Stats(); st.Promotions != 9 {
		t.Fatalf("second miss into a full window: %+v", st)
	}
	if _, _, ok := core.Probe(flows[8]); !ok {
		t.Fatal("admitted flow not answered")
	}
}

// TestPromotionRecoversAfterGenerationBump: with far more flows per core
// than doorkeeper slots, a generation bump tombstones every entry on
// contact. The re-evaluated flows must land in those tombstones on their
// first miss; were they gated by the doorkeeper, no digest would survive
// until its next miss and the table would never refill.
func TestPromotionRecoversAfterGenerationBump(t *testing.T) {
	const nflows = 512
	enf, _, apk := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 1}, enf)
	flows := make([]*ipv4.Packet, nflows)
	for i := range flows {
		flows[i] = dataPkt(t, apk.Truncated(), []uint32{0}, byte(i%200), uint16(30000+i))
	}
	// pass drives every flow through one lease, promoting each miss the
	// way the netfilter batch branch does, and reports the hits.
	pass := func() int {
		core := dp.Acquire()
		defer core.Release()
		hits := 0
		for _, pkt := range flows {
			if _, _, ok := core.Probe(pkt); ok {
				hits++
				continue
			}
			processAndPromote(enf, core, pkt)
		}
		return hits
	}
	// Warm-up promotes each flow twice in a row, so it lands whatever the
	// admission rule.
	core := dp.Acquire()
	for _, pkt := range flows {
		processAndPromote(enf, core, pkt)
		processAndPromote(enf, core, pkt)
	}
	core.Release()
	if hits := pass(); hits < nflows*9/10 {
		t.Fatalf("warm pass hit %d of %d flows", hits, nflows)
	}
	if err := enf.Engine().SetRules(denyFlurry()); err != nil {
		t.Fatal(err)
	}
	if hits := pass(); hits != 0 {
		t.Fatalf("%d stale entries answered after the bump", hits)
	}
	if hits := pass(); hits < nflows*9/10 {
		t.Fatalf("second pass after the bump hit %d of %d flows (stats %+v)", hits, nflows, dp.Stats())
	}
}

func TestUntaggedNeverAnswered(t *testing.T) {
	enf, _, apk := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 1}, enf)
	core := dp.Acquire()
	defer core.Release()

	pkt := dataPkt(t, apk.Truncated(), []uint32{0}, 34, 40001)
	pkt.Header.Options = nil // strip the tag
	if _, _, ok := core.Probe(pkt); ok {
		t.Fatal("untagged packet answered by dataplane")
	}
	res := enf.Process(pkt)
	core.Promote(pkt, kernel.VerdictDrop, &res)
	core.Promote(pkt, kernel.VerdictDrop, &res)
	if _, _, ok := core.Probe(pkt); ok {
		t.Fatal("untagged packet promoted into table")
	}
	if st := dp.Stats(); st.Promotions != 0 {
		t.Fatalf("untagged promotion landed: %+v", st)
	}
}

func TestGenerationBumpInvalidatesOnContact(t *testing.T) {
	enf, _, apk := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 1}, enf)
	core := dp.Acquire()
	defer core.Release()

	pkt := dataPkt(t, apk.Truncated(), []uint32{0}, 34, 40001)
	processAndPromote(enf, core, pkt)
	processAndPromote(enf, core, pkt)
	if _, _, ok := core.Probe(pkt); !ok {
		t.Fatal("no hit before reconfiguration")
	}

	// A rule swap moves the generation: the entry is stale on contact.
	if err := enf.Engine().SetRules(denyFlurry()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := core.Probe(pkt); ok {
		t.Fatal("stale entry served after SetRules")
	}
	if st := dp.Stats(); st.StaleDrops != 1 {
		t.Fatalf("stale drops = %+v", st)
	}
}

func TestInvalidatePurgesAcrossAcquire(t *testing.T) {
	enf, _, apk := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 1}, enf)
	pkt := dataPkt(t, apk.Truncated(), []uint32{0}, 34, 40001)

	core := dp.Acquire()
	processAndPromote(enf, core, pkt)
	processAndPromote(enf, core, pkt)
	if _, _, ok := core.Probe(pkt); !ok {
		t.Fatal("no hit")
	}
	core.Release()

	dp.Invalidate(pkt) // the gateway saw the FIN
	core = dp.Acquire()
	defer core.Release()
	if _, _, ok := core.Probe(pkt); ok {
		t.Fatal("closed flow still answered after purge drain")
	}
	if st := dp.Stats(); st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlushClearsOnNextAcquire(t *testing.T) {
	enf, _, apk := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 1}, enf)
	pkt := dataPkt(t, apk.Truncated(), []uint32{0}, 34, 40001)

	core := dp.Acquire()
	processAndPromote(enf, core, pkt)
	processAndPromote(enf, core, pkt)
	core.Release()

	dp.Flush() // gateway restart
	core = dp.Acquire()
	defer core.Release()
	if _, _, ok := core.Probe(pkt); ok {
		t.Fatal("entry survived the restart epoch")
	}
	if st := dp.Stats(); st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTTLExpiresEntries(t *testing.T) {
	clk := &tickClock{}
	enf, _, apk := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 1, TTL: time.Minute, Clock: clk}, enf)
	pkt := dataPkt(t, apk.Truncated(), []uint32{0}, 34, 40001)

	core := dp.Acquire()
	processAndPromote(enf, core, pkt)
	processAndPromote(enf, core, pkt)
	if _, _, ok := core.Probe(pkt); !ok {
		t.Fatal("no hit")
	}
	core.Release()

	clk.advance(2 * time.Minute)
	core = dp.Acquire()
	defer core.Release()
	if _, _, ok := core.Probe(pkt); ok {
		t.Fatal("expired entry served")
	}
	if st := dp.Stats(); st.Expired != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRuleStageDecisiveHashDeny: a hash-level deny that wins against every
// stack answers on first contact — no promotion round needed — with the
// exact verdict and cause the enforcer produces, while structurally
// suspect tags (bad index, truncation, unknown app) still fall through.
func TestRuleStageDecisiveHashDeny(t *testing.T) {
	apk := testAPK()
	rules := []policy.Rule{{Action: policy.Deny, Level: policy.LevelHash, Target: apk.Truncated().String()}}
	enf, _, _ := buildEnv(t, rules, policy.VerdictAllow)
	dp := New(Config{Cores: 1}, enf)
	core := dp.Acquire()
	defer core.Release()

	pkt := dataPkt(t, apk.Truncated(), []uint32{0, 1}, 34, 40001)
	v, aux, ok := core.Probe(pkt)
	if !ok || v != kernel.VerdictDrop {
		t.Fatalf("rule stage answer = %v, %v", v, ok)
	}
	if res := aux.(*enforcer.Result); res.Cause != enforcer.DropPolicy {
		t.Fatalf("cause = %v", res.Cause)
	}
	ref := enf.Process(pkt)
	if ref.Verdict != policy.VerdictDrop || ref.Cause != enforcer.DropPolicy {
		t.Fatalf("enforcer disagrees: %+v", ref)
	}
	if st := dp.Stats(); st.RuleHits != 1 || st.RuleStageApps != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// An out-of-range index would be DropBadIndex at the enforcer: the
	// stage must not answer it.
	bad := dataPkt(t, apk.Truncated(), []uint32{99}, 35, 40002)
	if _, _, ok := core.Probe(bad); ok {
		t.Fatal("stage answered a bad-index tag")
	}
	if res := enf.Process(bad); res.Cause != enforcer.DropBadIndex {
		t.Fatalf("reference cause = %v", res.Cause)
	}

	// An unknown app would be DropUnknownApp: also a forced miss.
	var ghost dex.TruncatedHash
	ghost[0] = 0xee
	unknown := dataPkt(t, ghost, []uint32{0}, 36, 40003)
	if _, _, ok := core.Probe(unknown); ok {
		t.Fatal("stage answered an unknown app")
	}
}

// TestEquivalenceMixedTraffic drives a mixed packet corpus — clean and
// tracker stacks, SYN/data/FIN control segments, duplicated and reordered
// fault shapes, fragments, bad indexes, malformed tags, unknown apps —
// through the dataplane-fronted path and a pure-enforcer reference, and
// requires identical verdicts and causes packet by packet, pass by pass.
func TestEquivalenceMixedTraffic(t *testing.T) {
	apk := testAPK()
	rules := append(denyFlurry(),
		policy.Rule{Action: policy.Deny, Level: policy.LevelMethod, Target: "Lcom/corp/files/SyncEngine;->upload()V"})

	build := func() *enforcer.Enforcer {
		db := analyzer.NewDatabase()
		if err := db.Add(apk); err != nil {
			t.Fatal(err)
		}
		eng, err := policy.NewEngine(rules, policy.VerdictAllow)
		if err != nil {
			t.Fatal(err)
		}
		return enforcer.New(enforcer.Config{
			Flows: enforcer.NewFlowCache(flowtable.Config{Capacity: 4096}),
		}, db, eng)
	}
	fast := build() // fronted by the dataplane
	ref := build()  // pure slow path
	dp := New(Config{Cores: 1}, fast)

	hash := apk.Truncated()
	var corpus []*ipv4.Packet
	addConn := func(dstLo byte, srcPort uint16, indexes []uint32) {
		payload := []byte("POST /x HTTP/1.1\r\n\r\n")
		corpus = append(corpus,
			tcpPkt(t, hash, indexes, dstLo, srcPort, transport.FlagSYN, 1, nil))
		seq := uint32(2)
		for i := 0; i < 3; i++ {
			corpus = append(corpus,
				tcpPkt(t, hash, indexes, dstLo, srcPort, transport.FlagPSH|transport.FlagACK, seq, payload))
			seq += uint32(len(payload))
		}
		corpus = append(corpus,
			tcpPkt(t, hash, indexes, dstLo, srcPort, transport.FlagFIN|transport.FlagACK, seq, nil))
	}
	addConn(34, 40001, []uint32{0})    // clean: allow
	addConn(35, 40002, []uint32{2, 0}) // tracker frame: deny
	addConn(36, 40003, []uint32{1})    // denied method: deny
	// Fault shapes: duplicate the clean connection's first data segment,
	// reorder the denied connection's tail.
	corpus = append(corpus, corpus[1].Clone())
	corpus = append(corpus, corpus[8].Clone(), corpus[7].Clone())
	// A non-first fragment: ports zero out in the flow key.
	frag := dataPkt(t, hash, []uint32{0}, 37, 40004)
	frag.Header.FragOff = 185
	corpus = append(corpus, frag)
	// Structural negatives.
	corpus = append(corpus, dataPkt(t, hash, []uint32{99}, 38, 40005)) // bad index
	var ghost dex.TruncatedHash
	ghost[7] = 0x5a
	corpus = append(corpus, dataPkt(t, ghost, []uint32{0}, 39, 40006)) // unknown app
	mal := dataPkt(t, hash, []uint32{0}, 40, 40007)
	mal.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{tag.Version << 4, 1, 2}}) // truncated header
	corpus = append(corpus, mal)
	unt := dataPkt(t, hash, []uint32{0}, 41, 40008)
	unt.Header.Options = nil
	corpus = append(corpus, unt) // untagged

	for pass := 0; pass < 3; pass++ {
		core := dp.Acquire()
		if core == nil {
			t.Fatal("no core")
		}
		for i, pkt := range corpus {
			want := ref.Process(pkt)
			var got enforcer.Result
			if v, aux, ok := core.Probe(pkt); ok {
				got = *aux.(*enforcer.Result)
				wantV := kernel.VerdictAccept
				if got.Verdict == policy.VerdictDrop {
					wantV = kernel.VerdictDrop
				}
				if v != wantV {
					t.Fatalf("pass %d pkt %d: verdict/aux mismatch %v vs %+v", pass, i, v, got)
				}
			} else {
				got = processAndPromote(fast, core, pkt)
			}
			if got.Verdict != want.Verdict || got.Cause != want.Cause {
				t.Fatalf("pass %d pkt %d: dataplane path = %v/%v, enforcer = %v/%v",
					pass, i, got.Verdict, got.Cause, want.Verdict, want.Cause)
			}
		}
		core.Release()
	}
	if st := dp.Stats(); st.Hits == 0 {
		t.Fatalf("equivalence ran entirely on the slow path: %+v", st)
	}
}

// TestPromoteVsInvalidateFlip pins the generation contract under -race:
// promoter goroutines hammer probe→process→promote while the main
// goroutine flips the rule set between allow-everything and a decisive
// hash deny. After every flip, a probe may miss or may hit — but a hit
// must carry the verdict the *current* rules produce. Zero stale-table
// verdicts across each bump.
func TestPromoteVsInvalidateFlip(t *testing.T) {
	apk := testAPK()
	denyAll := []policy.Rule{{Action: policy.Deny, Level: policy.LevelHash, Target: apk.Truncated().String()}}
	enf, _, _ := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 4}, enf)
	pkt := dataPkt(t, apk.Truncated(), []uint32{0}, 34, 40001)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				core := dp.Acquire()
				if core == nil {
					continue
				}
				for i := 0; i < 32; i++ {
					if _, _, ok := core.Probe(pkt); !ok {
						processAndPromote(enf, core, pkt)
					}
				}
				core.Release()
			}
		}()
	}

	acquire := func() kernel.DataplaneCore {
		for {
			if core := dp.Acquire(); core != nil {
				return core
			}
		}
	}
	for i := 0; i < 300; i++ {
		if err := enf.Engine().SetRules(denyAll); err != nil {
			t.Fatal(err)
		}
		core := actOn(t, acquire(), pkt, kernel.VerdictDrop)
		core.Release()
		if err := enf.Engine().SetRules(nil); err != nil {
			t.Fatal(err)
		}
		core = actOn(t, acquire(), pkt, kernel.VerdictAccept)
		core.Release()
	}
	close(stop)
	wg.Wait()
}

// actOn probes once on the given core and fails the test if a hit carries
// any verdict but want — the stale-table signature.
func actOn(t *testing.T, core kernel.DataplaneCore, pkt *ipv4.Packet, want kernel.Verdict) kernel.DataplaneCore {
	t.Helper()
	if v, _, ok := core.Probe(pkt); ok && v != want {
		t.Fatalf("stale verdict served after generation bump: got %v, want %v", v, want)
	}
	return core
}

// TestForwardSeqAnomalyCounted: duplicated or discontinuous forward data
// segments on a hit bump the anomaly counter but never change the verdict
// (fault-shaped traffic is legitimate in the forward direction).
func TestForwardSeqAnomalyCounted(t *testing.T) {
	enf, _, apk := buildEnv(t, nil, policy.VerdictAllow)
	dp := New(Config{Cores: 1}, enf)
	core := dp.Acquire()
	defer core.Release()

	hash := apk.Truncated()
	mk := func(seq uint32) *ipv4.Packet {
		return tcpPkt(t, hash, []uint32{0}, 34, 40001, transport.FlagPSH|transport.FlagACK, seq, []byte("data"))
	}
	p := mk(1000)
	processAndPromote(enf, core, p)
	processAndPromote(enf, core, p)

	if _, _, ok := core.Probe(mk(1000)); !ok { // primes fwdNext=1004
		t.Fatal("no hit")
	}
	if _, _, ok := core.Probe(mk(1004)); !ok { // continuous
		t.Fatal("no hit")
	}
	core.Release() // anomaly tallies are lease-local; flush before reading
	if st := dp.Stats(); st.SeqAnomalies != 0 {
		t.Fatalf("continuous stream counted: %+v", st)
	}
	core = dp.Acquire()
	if v, _, ok := core.Probe(mk(1004)); !ok || v != kernel.VerdictAccept { // duplicate
		t.Fatal("duplicate dropped")
	}
	core.Release()
	if st := dp.Stats(); st.SeqAnomalies != 1 {
		t.Fatalf("anomalies = %+v", st)
	}
	core = dp.Acquire()
}
