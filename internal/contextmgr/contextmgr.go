// Package contextmgr implements BorderPatrol's Context Manager (paper
// §IV-A2, §V-B): the Xposed-style module that runs on the provisioned
// device. When an app loads, it parses the app's dex files to build the
// deterministic signature→index mapping and the line-number table. When any
// socket connects, its post-hook gathers the Java stack trace, resolves
// each frame to a method signature, encodes the signature indexes plus the
// truncated apk hash into the compact tag, and injects the tag into the
// socket's IP_OPTIONS through the JNI setsockopt shim.
package contextmgr

import (
	"errors"
	"fmt"
	"sync"

	"borderpatrol/internal/analyzer"
	"borderpatrol/internal/android"
	"borderpatrol/internal/dex"
	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/kernel"
	"borderpatrol/internal/metrics"
	"borderpatrol/internal/netstack"
	"borderpatrol/internal/tag"
)

// JNIShim is the native shared library exposing setsockopt to managed code
// (paper §V-B "Shared library"): standard Java APIs refuse to set
// IP_OPTIONS, so the Context Manager calls through JNI into this wrapper.
type JNIShim struct {
	kern *kernel.Kernel
	// caps are the capabilities of the calling (user-space, unprivileged)
	// process: none. Only the kernel patch makes the call succeed.
	caps kernel.Capability
}

// NewJNIShim builds the shim against a device kernel.
func NewJNIShim(k *kernel.Kernel) *JNIShim {
	return &JNIShim{kern: k}
}

// SetIPOptions forwards to the setsockopt system call.
func (j *JNIShim) SetIPOptions(fd int, opts []ipv4.Option) error {
	return j.kern.SetIPOptions(fd, j.caps, opts)
}

// appState is the per-app state the Context Manager builds at load time.
type appState struct {
	hash     dex.TruncatedHash
	lineTab  *dex.LineTable
	sigIndex map[string]uint32
	// overloadIndex maps a merged signature's package/class/name key to
	// the lowest index among its overloads, precomputed at load time so
	// the per-socket hot path is a single map probe instead of a full
	// sigIndex scan with a ParseSignature per key.
	overloadIndex map[string]uint32
	stripped      bool
}

// overloadKey is the merged-signature lookup key: overloads share
// package, class and method name and differ only in the prototype.
func overloadKey(pkg, class, name string) string {
	return pkg + ";" + class + ";" + name
}

// Stats counts Context Manager activity for the performance evaluation.
type Stats struct {
	// SocketsTagged counts sockets that received a tag.
	SocketsTagged uint64
	// TagFailures counts setsockopt errors (e.g. unpatched kernel).
	TagFailures uint64
	// FramesResolved counts stack frames mapped to signatures.
	FramesResolved uint64
	// FramesDropped counts framework frames not present in app dex files.
	FramesDropped uint64
	// StacksTruncated counts stacks that exceeded the IP_OPTIONS budget.
	StacksTruncated uint64
}

// Manager is the Context Manager module.
type Manager struct {
	shim *JNIShim

	mu    sync.Mutex
	apps  map[int]*appState // by uid
	stats Stats
	// lastErr remembers the most recent tagging failure for diagnostics.
	lastErr error
}

var _ android.Module = (*Manager)(nil)

// New builds a Context Manager for a device and registers its socket
// post-hook on the device's network stack. The module still needs to be
// loaded with device.LoadModule so it can observe app loads.
func New(device *android.Device) *Manager {
	m := &Manager{
		shim: NewJNIShim(device.Kernel()),
		apps: make(map[int]*appState),
	}
	device.Stack().RegisterConnectHook(func(sock *netstack.JavaSocket) {
		m.onSocketConnected(device, sock)
	})
	return m
}

// Name implements android.Module.
func (m *Manager) Name() string { return "borderpatrol-context-manager" }

// HandleLoadPackage implements android.Module: parse the apk, build the
// signature index and line table (paper: "When an app is loaded, the
// Context Manager parses the dex file using dexlib2").
func (m *Manager) HandleLoadPackage(app *android.App) error {
	entry, err := analyzer.AnalyzeAPK(app.APK)
	if err != nil {
		return fmt.Errorf("contextmgr: analyze %s: %w", app.APK.PackageName, err)
	}
	st := &appState{
		hash:          app.APK.Truncated(),
		lineTab:       dex.NewLineTable(app.APK),
		sigIndex:      make(map[string]uint32, len(entry.Signatures)),
		overloadIndex: make(map[string]uint32, len(entry.Signatures)),
		stripped:      entry.DebugStripped,
	}
	for i, raw := range entry.Signatures {
		idx := uint32(i)
		st.sigIndex[raw] = idx
		sig, err := dex.ParseSignature(raw)
		if err != nil {
			continue
		}
		key := overloadKey(sig.Package, sig.Class, sig.Name)
		if prev, ok := st.overloadIndex[key]; !ok || idx < prev {
			st.overloadIndex[key] = idx
		}
	}
	m.mu.Lock()
	m.apps[app.UID] = st
	m.mu.Unlock()
	return nil
}

// ErrUntracked reports a socket owned by an app the manager has not loaded.
var ErrUntracked = errors.New("contextmgr: socket owner not tracked")

// onSocketConnected is the Xposed post-hook body (paper Fig. 2): gather the
// stack trace, resolve frames, encode, inject.
func (m *Manager) onSocketConnected(device *android.Device, sock *netstack.JavaSocket) {
	m.mu.Lock()
	st, tracked := m.apps[sock.OwnerUID]
	m.mu.Unlock()
	if !tracked {
		// Personal-profile or unknown app: the Context Manager does not
		// interact with it (work/personal separation, §VII).
		return
	}
	app, ok := device.AppByUID(sock.OwnerUID)
	if !ok {
		m.recordErr(fmt.Errorf("%w: uid %d", ErrUntracked, sock.OwnerUID))
		return
	}

	// Step 1-2: getStackTrace and per-frame signature resolution.
	frames := app.Thread().GetStackTrace()
	indexes := make([]uint32, 0, len(frames))
	resolved := make([]dex.Signature, 0, len(frames))
	var dropped, kept uint64
	for _, f := range frames {
		sig, ok := st.lineTab.Resolve(f)
		if !ok {
			dropped++
			continue
		}
		idx, found := st.sigIndex[sig.String()]
		if !found && sig.Merged() {
			// Merged signatures are not in the index; use the first
			// overload's slot so the enforcer can still identify the
			// method name deterministically.
			idx, found = st.overloadIndex[overloadKey(sig.Package, sig.Class, sig.Name)]
		}
		if !found {
			dropped++
			continue
		}
		indexes = append(indexes, idx)
		resolved = append(resolved, sig)
		kept++
	}

	// Step 3: encode into the compact representation.
	t := tag.Tag{
		AppHash:       st.hash,
		Indexes:       indexes,
		DebugStripped: st.stripped,
	}
	payload, err := t.Encode()
	if err != nil {
		m.recordErr(fmt.Errorf("contextmgr: encode: %w", err))
		return
	}

	// Step 4: inject via the JNI shim (setsockopt IP_OPTIONS).
	err = m.shim.SetIPOptions(sock.FD(), []ipv4.Option{{Type: ipv4.OptSecurity, Data: payload}})

	// Expose the captured context for tests/extractor. Published through
	// the socket's own synchronized accessor — the manager's mutex below
	// guards only the manager's stats, and readers of the socket never
	// take it.
	if err == nil {
		sock.SetContext(resolved)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.FramesResolved += kept
	m.stats.FramesDropped += dropped
	// The encoder is the single source of truth for truncation: its flag
	// byte reflects the budget it actually applied — 14 narrow frames but
	// only 9 wide ones. Comparing len(indexes) against MaxNarrowFrames
	// here undercounts wide-index stacks of 10..14 frames, which the
	// encoder truncated at 9 without exceeding the narrow threshold.
	if len(payload) > 0 && payload[0]&tag.FlagTruncated != 0 {
		m.stats.StacksTruncated++
	}
	if err != nil {
		m.stats.TagFailures++
		m.lastErr = err
		return
	}
	m.stats.SocketsTagged++
}

func (m *Manager) recordErr(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.TagFailures++
	m.lastErr = err
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// RegisterMetrics attaches the tagger's counters to a registry as the
// bp_tagger_* families (devctx owns bp_context_*). All are scrape-time
// closures over Stats; the socket hook is untouched.
func (m *Manager) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("bp_tagger_sockets_tagged_total", "Sockets that received a context tag.",
		func() uint64 { return m.Stats().SocketsTagged })
	r.CounterFunc("bp_tagger_tag_failures_total", "Tagging attempts that failed (setsockopt or encode errors).",
		func() uint64 { return m.Stats().TagFailures })
	const frameHelp = "Stack frames seen at tagging time by outcome (dropped = framework frames not in app dex files)."
	r.CounterFunc("bp_tagger_frames_total", frameHelp,
		func() uint64 { return m.Stats().FramesResolved }, metrics.L("outcome", "resolved"))
	r.CounterFunc("bp_tagger_frames_total", frameHelp,
		func() uint64 { return m.Stats().FramesDropped }, metrics.L("outcome", "dropped"))
	r.CounterFunc("bp_tagger_stacks_truncated_total", "Stacks truncated to the IP_OPTIONS budget.",
		func() uint64 { return m.Stats().StacksTruncated })
}

// LastError returns the most recent tagging failure, if any.
func (m *Manager) LastError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// TrackedApps returns the number of apps the manager has state for.
func (m *Manager) TrackedApps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.apps)
}
