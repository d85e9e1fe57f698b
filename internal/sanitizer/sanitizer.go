// Package sanitizer implements BorderPatrol's Packet Sanitizer (paper
// §IV-A4, §V-D): the last component before the corporate border. It strips
// the BorderPatrol IP option from every policy-conforming packet so that
// (i) RFC 7126-compliant upstream routers do not drop the traffic, and
// (ii) execution-context information (app identity, loaded libraries) never
// leaves the perimeter — a privacy property, not just a routing one.
package sanitizer

import (
	"sync"

	"borderpatrol/internal/ipv4"
	"borderpatrol/internal/metrics"
)

// Config selects sanitizer behaviour.
type Config struct {
	// StripAllOptions removes every IP option rather than only the
	// BorderPatrol security option. RFC 7126 filtering at the border makes
	// any surviving option fatal, so the paranoid default is true.
	StripAllOptions bool
}

// Stats counts sanitizer activity.
type Stats struct {
	// Processed counts packets seen.
	Processed uint64
	// Cleansed counts packets that had options removed.
	Cleansed uint64
	// AlreadyClean counts packets that needed no work.
	AlreadyClean uint64
}

// Sanitizer removes context tags from outbound packets.
type Sanitizer struct {
	cfg Config

	mu    sync.Mutex
	stats Stats
}

// New builds a sanitizer.
func New(cfg Config) *Sanitizer {
	return &Sanitizer{cfg: cfg}
}

// Process cleanses one packet in place and returns it. The packet the
// caller passes is mutated (the gateway pipeline owns it at this stage).
func (s *Sanitizer) Process(pkt *ipv4.Packet) *ipv4.Packet {
	removed := false
	if s.cfg.StripAllOptions {
		if pkt.Header.HasOptions() {
			pkt.Header.Options = nil
			removed = true
		}
	} else {
		removed = pkt.Header.RemoveOption(ipv4.OptSecurity)
	}
	s.mu.Lock()
	s.stats.Processed++
	if removed {
		s.stats.Cleansed++
	} else {
		s.stats.AlreadyClean++
	}
	s.mu.Unlock()
	return pkt
}

// Stats returns a snapshot of the counters.
func (s *Sanitizer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RegisterMetrics attaches the sanitizer's counters to a registry as the
// bp_sanitizer_packets_total family: cleansed packets had options removed,
// already_clean ones needed no work. Scrape-time closures over Stats.
func (s *Sanitizer) RegisterMetrics(r *metrics.Registry) {
	const help = "Packets the sanitizer saw by outcome."
	r.CounterFunc("bp_sanitizer_packets_total", help,
		func() uint64 { return s.Stats().Cleansed }, metrics.L("outcome", "cleansed"))
	r.CounterFunc("bp_sanitizer_packets_total", help,
		func() uint64 { return s.Stats().AlreadyClean }, metrics.L("outcome", "already_clean"))
}
