package sanitizer

import (
	"net/netip"
	"testing"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
)

func taggedPacket() *ipv4.Packet {
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL:      64,
			Protocol: ipv4.ProtoTCP,
			Src:      netip.MustParseAddr("10.0.0.5"),
			Dst:      netip.MustParseAddr("93.184.216.34"),
		},
		Payload: []byte("GET / HTTP/1.1\r\n\r\n"),
	}
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptSecurity, Data: []byte{1, 2, 3, 4}})
	return pkt
}

func TestStripsBorderPatrolOption(t *testing.T) {
	s := New(Config{})
	pkt := s.Process(taggedPacket())
	if pkt.Header.HasOptions() {
		t.Fatalf("options survived: %+v", pkt.Header.Options)
	}
	// The cleansed packet now passes RFC 7126 border filtering.
	if ipv4.BorderFilter(pkt) != ipv4.BorderForward {
		t.Fatal("cleansed packet still dropped at border")
	}
	st := s.Stats()
	if st.Processed != 1 || st.Cleansed != 1 || st.AlreadyClean != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCleanPacketUntouched(t *testing.T) {
	s := New(Config{})
	pkt := taggedPacket()
	pkt.Header.Options = nil
	payloadBefore := string(pkt.Payload)
	out := s.Process(pkt)
	if string(out.Payload) != payloadBefore {
		t.Fatal("payload modified")
	}
	st := s.Stats()
	if st.AlreadyClean != 1 || st.Cleansed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSelectiveStripKeepsOtherOptions(t *testing.T) {
	// With StripAllOptions=false only the BorderPatrol option goes; a
	// timestamp option survives (and would then be dropped at the border —
	// which is why the default strips everything).
	s := New(Config{StripAllOptions: false})
	pkt := taggedPacket()
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptTimestamp, Data: []byte{9}})
	out := s.Process(pkt)
	if _, ok := out.Header.FindOption(ipv4.OptSecurity); ok {
		t.Fatal("security option survived selective strip")
	}
	if _, ok := out.Header.FindOption(ipv4.OptTimestamp); !ok {
		t.Fatal("timestamp option removed by selective strip")
	}
	if ipv4.BorderFilter(out) != ipv4.BorderDrop {
		t.Fatal("expected border drop with surviving option")
	}
}

func TestStripAllOptions(t *testing.T) {
	s := New(Config{StripAllOptions: true})
	pkt := taggedPacket()
	pkt.Header.SetOption(ipv4.Option{Type: ipv4.OptTimestamp, Data: []byte{9}})
	out := s.Process(pkt)
	if out.Header.HasOptions() {
		t.Fatal("options survived StripAllOptions")
	}
}

func TestSanitizedPacketStillMarshals(t *testing.T) {
	s := New(Config{})
	out := s.Process(taggedPacket())
	buf, err := out.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ipv4.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.HasOptions() {
		t.Fatal("options reappeared after marshal round trip")
	}
	if len(back.Payload) != len(out.Payload) {
		t.Fatal("payload length changed")
	}
}

func TestIdempotent(t *testing.T) {
	s := New(Config{})
	pkt := s.Process(taggedPacket())
	again := s.Process(pkt)
	if again.Header.HasOptions() {
		t.Fatal("second pass found options")
	}
	st := s.Stats()
	if st.Cleansed != 1 || st.AlreadyClean != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRegisterMetricsMatchesStats: the bp_sanitizer_packets_total series
// read the same counters Stats reports.
func TestRegisterMetricsMatchesStats(t *testing.T) {
	s := New(Config{})
	reg := metrics.NewRegistry()
	s.RegisterMetrics(reg)
	for i := 0; i < 3; i++ {
		s.Process(taggedPacket())
	}
	clean := taggedPacket()
	clean.Header.Options = nil
	s.Process(clean)

	st := s.Stats()
	want := map[string]uint64{"cleansed": st.Cleansed, "already_clean": st.AlreadyClean}
	got := map[string]uint64{}
	for _, smp := range reg.Snapshot() {
		if smp.Name == "bp_sanitizer_packets_total" {
			got[smp.Labels[0].Value] = uint64(smp.Value)
		}
	}
	if len(got) != 2 || got["cleansed"] != want["cleansed"] || got["already_clean"] != want["already_clean"] {
		t.Fatalf("series = %v, Stats = %v", got, want)
	}
	if st.Cleansed != 3 || st.AlreadyClean != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
