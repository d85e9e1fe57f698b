package experiments

import (
	"fmt"
	"testing"

	"borderpatrol/internal/metrics"
)

// TestRunFleetSmoke is the CI-scale fleet run: small N under the race
// detector, same invariants as the full 8×1250 default. Every gateway
// registers the same metric families as a stand-alone deployment, the
// tagger's and the sanitizer's included.
func TestRunFleetSmoke(t *testing.T) {
	agg := metrics.NewAggregate("gateway")
	res, err := RunFleet(FleetRunConfig{Gateways: 3, DevicesPerGateway: 40, BatchSize: 128, Metrics: agg})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Gateways != 3 || res.Devices != 120 {
		t.Fatalf("scale: %+v", res)
	}
	if res.HTTPPackets == 0 || res.DNSPackets == 0 {
		t.Fatalf("workload not mixed: http=%d dns=%d", res.HTTPPackets, res.DNSPackets)
	}
	if res.P50Ns == 0 || res.P99Ns < res.P50Ns {
		t.Fatalf("latency quantiles degenerate: %+v", res)
	}
	if res.Format() == "" {
		t.Fatal("empty format")
	}
	seen := map[string]bool{}
	for _, smp := range agg.Snapshot() {
		seen[smp.Name+"/"+smp.Labels[0].Value] = true
	}
	for gw := 0; gw < res.Gateways; gw++ {
		for _, family := range []string{"bp_tagger_sockets_tagged_total", "bp_sanitizer_packets_total"} {
			if key := fmt.Sprintf("%s/gw%d", family, gw); !seen[key] {
				t.Errorf("%s missing from the fleet aggregate", key)
			}
		}
	}
}
