package enforcer

import (
	"sync"
	"testing"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/flowtable"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/policy"
)

// newCachedEnforcer builds an enforcer with a flow cache attached.
func newCachedEnforcer(t *testing.T, cfg Config, rules []policy.Rule, def policy.Verdict) (*Enforcer, *analyzer.Database, *dex.APK) {
	t.Helper()
	cfg.Flows = NewFlowCache(flowtable.Config{Capacity: 1024})
	return newEnforcer(t, cfg, rules, def)
}

func TestFlowCacheHitSkipsPipeline(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		policy.VerdictAllow)

	pkt := mkPacket(t, apk, db, "download")
	first := e.Process(pkt)
	if first.Verdict != policy.VerdictAllow {
		t.Fatalf("first packet dropped: %+v", first)
	}
	evalsAfterFirst := e.Engine().Stats().Evaluations

	// Ten more packets of the same flow: all hits, zero extra evaluations.
	for i := 0; i < 10; i++ {
		res := e.Process(pkt)
		if res.Verdict != policy.VerdictAllow {
			t.Fatalf("cached packet dropped: %+v", res)
		}
		if len(res.Stack) != 1 || res.Stack[0].Name != "download" {
			t.Fatalf("cached stack = %v", res.Stack)
		}
		if res.Decision == nil {
			t.Fatal("cached decision missing")
		}
	}
	if got := e.Engine().Stats().Evaluations; got != evalsAfterFirst {
		t.Fatalf("cache hits re-evaluated policy: %d evaluations, want %d", got, evalsAfterFirst)
	}
	st := e.Stats()
	if st.Flow.Hits != 10 || st.Flow.Misses != 1 {
		t.Fatalf("flow stats = %+v", st.Flow)
	}
	if st.Processed != 11 || st.Accepted != 11 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSetRulesFlipsCachedVerdict is the central invalidation property: a
// mid-stream policy change must flip the verdict of an already-cached
// flow on its very next packet.
func TestSetRulesFlipsCachedVerdict(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)

	tracker := mkPacket(t, apk, db, "beacon", "download")
	if res := e.Process(tracker); res.Verdict != policy.VerdictAllow {
		t.Fatalf("pre-rule packet dropped: %+v", res)
	}
	if res := e.Process(tracker); res.Verdict != policy.VerdictAllow {
		t.Fatalf("cached pre-rule packet dropped: %+v", res)
	}

	// Central reconfiguration: deny the tracker library.
	if err := e.Engine().SetRules([]policy.Rule{
		{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"},
	}); err != nil {
		t.Fatal(err)
	}
	res := e.Process(tracker)
	if res.Verdict != policy.VerdictDrop || res.Cause != DropPolicy {
		t.Fatalf("cached allow survived SetRules: %+v", res)
	}
	if st := e.Stats(); st.Flow.StaleDrops == 0 {
		t.Fatalf("no stale drop recorded: %+v", st.Flow)
	}

	// And back: removing the rule re-admits the flow.
	if err := e.Engine().SetRules(nil); err != nil {
		t.Fatal(err)
	}
	if res := e.Process(tracker); res.Verdict != policy.VerdictAllow {
		t.Fatalf("cached drop survived rule removal: %+v", res)
	}
}

// TestAddEntryFlipsCachedVerdict covers the database half of invalidation:
// an unknown-app drop cached before provisioning must re-evaluate (and
// admit) once the app is added.
func TestAddEntryFlipsCachedVerdict(t *testing.T) {
	apk := testAPK()
	db := analyzer.NewDatabase()
	eng, err := policy.NewEngine(nil, policy.VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Flows: NewFlowCache(flowtable.Config{Capacity: 1024})}, db, eng)

	// Build the packet against a throwaway database (mkPacket needs the
	// app's entry to find indexes; the enforcer's db deliberately lacks it).
	pkt := mkPacket(t, apk, dbWith(t, apk), "download")

	if res := e.Process(pkt); res.Verdict != policy.VerdictDrop || res.Cause != DropUnknownApp {
		t.Fatalf("unprovisioned app not dropped: %+v", res)
	}
	// Second packet served from cache, still dropped.
	if res := e.Process(pkt); res.Verdict != policy.VerdictDrop || res.Cause != DropUnknownApp {
		t.Fatalf("cached unknown-app verdict wrong: %+v", res)
	}

	// Provision the app mid-stream: the generation bump must invalidate
	// the cached drop and the next packet decodes and flows.
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	res := e.Process(pkt)
	if res.Verdict != policy.VerdictAllow {
		t.Fatalf("cached unknown-app drop survived AddEntry: %+v", res)
	}
	if len(res.Stack) != 1 {
		t.Fatalf("post-provisioning stack = %v", res.Stack)
	}
}

// dbWith returns a throwaway database containing apk, used only to build
// correctly-indexed packets for apps the enforcer under test does not know.
func dbWith(t *testing.T, apk *dex.APK) *analyzer.Database {
	t.Helper()
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCachedMatchesFresh locks in equivalence: across a matrix of packets
// and rule updates, a cache-enabled enforcer must produce exactly the
// verdicts, causes, and stacks of a cache-free one.
func TestCachedMatchesFresh(t *testing.T) {
	ruleSets := [][]policy.Rule{
		nil,
		{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		{{Action: policy.Deny, Level: policy.LevelMethod, Target: "Lcom/corp/files/SyncEngine;->upload()V"}},
		{{Action: policy.Allow, Level: policy.LevelLibrary, Target: "com/corp"},
			{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com"}},
	}

	cached, cdb, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	fresh, fdb, _ := newEnforcer(t, Config{}, nil, policy.VerdictAllow)

	pkts := []*ipv4.Packet{
		mkPacket(t, apk, cdb, "download"),
		mkPacket(t, apk, cdb, "upload"),
		mkPacket(t, apk, cdb, "beacon", "download"),
		mkPacket(t, apk, cdb, "beacon"),
	}
	_ = fdb

	for round, rules := range ruleSets {
		if err := cached.Engine().SetRules(rules); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Engine().SetRules(rules); err != nil {
			t.Fatal(err)
		}
		// Two passes per round so the second pass is all cache hits.
		for pass := 0; pass < 2; pass++ {
			for i, pkt := range pkts {
				want := fresh.Process(pkt)
				got := cached.Process(pkt)
				if got.Verdict != want.Verdict || got.Cause != want.Cause {
					t.Fatalf("round %d pass %d pkt %d: cached %v/%v, fresh %v/%v",
						round, pass, i, got.Verdict, got.Cause, want.Verdict, want.Cause)
				}
				if len(got.Stack) != len(want.Stack) {
					t.Fatalf("round %d pkt %d: stack %v vs %v", round, i, got.Stack, want.Stack)
				}
				for f := range got.Stack {
					if got.Stack[f] != want.Stack[f] {
						t.Fatalf("round %d pkt %d frame %d: %v vs %v", round, i, f, got.Stack[f], want.Stack[f])
					}
				}
			}
		}
	}
	if st := cached.Stats(); st.Flow.Hits == 0 {
		t.Fatalf("equivalence matrix never hit the cache: %+v", st.Flow)
	}
}

// TestProcessBatchMatchesProcess checks the batch path end to end,
// including the same-flow memo.
func TestProcessBatchMatchesProcess(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		policy.VerdictAllow)
	ref, rdb, _ := newEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		policy.VerdictAllow)
	_ = rdb

	clean := mkPacket(t, apk, db, "download")
	tracker := mkPacket(t, apk, db, "beacon", "download")
	untagged := &ipv4.Packet{Header: clean.Header}
	untagged.Header.Options = nil

	// A keep-alive-shaped batch: runs of the same flow with interleaves.
	batch := []*ipv4.Packet{clean, clean, clean, tracker, tracker, clean, untagged, tracker, clean}
	results := e.ProcessBatch(batch, nil)
	if len(results) != len(batch) {
		t.Fatalf("len(results) = %d, want %d", len(results), len(batch))
	}
	for i, pkt := range batch {
		want := ref.Process(pkt)
		if results[i].Verdict != want.Verdict || results[i].Cause != want.Cause {
			t.Fatalf("pkt %d: batch %v/%v, scalar %v/%v",
				i, results[i].Verdict, results[i].Cause, want.Verdict, want.Cause)
		}
	}
	st := e.Stats()
	if st.Processed != uint64(len(batch)) {
		t.Fatalf("processed = %d, want %d", st.Processed, len(batch))
	}
	if st.BatchMemoHits == 0 {
		t.Fatalf("same-flow runs never used the batch memo: %+v", st)
	}
	// Reusing the out slice must not allocate a new one.
	again := e.ProcessBatch(batch, results)
	if &again[0] != &results[0] {
		t.Fatal("out slice not reused")
	}
}

// TestProcessBatchWithoutCache: with caching disabled, ProcessBatch is a
// true uncached baseline — every packet pays a policy evaluation and the
// same-flow memo stays off (baseline measurements depend on this).
func TestProcessBatchWithoutCache(t *testing.T) {
	e, db, apk := newEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		policy.VerdictAllow)
	clean := mkPacket(t, apk, db, "download")
	evBefore := e.Engine().Stats().Evaluations
	res := e.ProcessBatch([]*ipv4.Packet{clean, clean, clean, clean}, nil)
	for i, r := range res {
		if r.Verdict != policy.VerdictAllow {
			t.Fatalf("pkt %d dropped: %+v", i, r)
		}
	}
	if got := e.Engine().Stats().Evaluations - evBefore; got != 4 {
		t.Fatalf("evaluations = %d, want 4 (no caching of any kind)", got)
	}
	if st := e.Stats(); st.BatchMemoHits != 0 {
		t.Fatalf("batch memo active without a flow cache: %+v", st)
	}
}

// TestConcurrentFlowCacheReadersVsRuleUpdates drives cached flows from
// many goroutines while SetRules churns, under -race. Verdicts observed
// after a rule set is committed and quiesced must match it — during churn
// we only require that every verdict is one a current-or-concurrent rule
// set could produce (allow or tracker-drop, never a decode failure).
func TestConcurrentFlowCacheReadersVsRuleUpdates(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{},
		[]policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}},
		policy.VerdictAllow)

	tracker := mkPacket(t, apk, db, "beacon", "download")
	clean := mkPacket(t, apk, db, "download")

	const goroutines = 8
	const perG = 400

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			rules := []policy.Rule{{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/flurry"}}
			if flip {
				// Same semantics, different object: forces recompilation
				// and a generation bump every round.
				rules = append(rules, policy.Rule{Action: policy.Deny, Level: policy.LevelLibrary, Target: "com/never/used"})
			}
			flip = !flip
			if err := e.Engine().SetRules(rules); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if res := e.Process(tracker); res.Verdict != policy.VerdictDrop || res.Cause != DropPolicy {
					t.Errorf("tracker packet admitted: %+v", res)
					return
				}
				if res := e.Process(clean); res.Verdict != policy.VerdictAllow {
					t.Errorf("clean packet dropped: %+v", res)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone

	st := e.Stats()
	if st.Processed != goroutines*perG*2 {
		t.Fatalf("processed = %d, want %d", st.Processed, goroutines*perG*2)
	}
	if st.Accepted != goroutines*perG || st.Dropped != goroutines*perG {
		t.Fatalf("accepted/dropped = %d/%d, want %d each", st.Accepted, st.Dropped, goroutines*perG)
	}
}

// TestProcessBatchFeedsHitLatency: flow-table hits on the batch path feed
// the hit-latency histogram, as hits on Process do. Two interleaved flows
// defeat the same-flow memo, so every packet after the first two probes
// and hits the table; the batch path times one probe in 64.
func TestProcessBatchFeedsHitLatency(t *testing.T) {
	e, db, apk := newCachedEnforcer(t, Config{}, nil, policy.VerdictAllow)
	a := withTCP(mkPacket(t, apk, db, "download"), 40000)
	b := withTCP(mkPacket(t, apk, db, "download"), 40001)
	batch := make([]*ipv4.Packet, 256)
	for i := range batch {
		batch[i] = a
		if i%2 == 1 {
			batch[i] = b
		}
	}
	e.ProcessBatch(batch, nil)
	if st := e.Stats(); st.BatchMemoHits != 0 || st.Flow.Hits != uint64(len(batch)-2) {
		t.Fatalf("want %d table hits and no memo hits: %+v", len(batch)-2, st)
	}
	if timed := e.ins.hitLatency.Snapshot().Count(); timed < uint64(len(batch)-2)/(hitSampleMask+1) {
		t.Fatalf("hit-latency samples = %d over %d table hits", timed, len(batch)-2)
	}
}
