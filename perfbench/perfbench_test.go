package main

import (
	"testing"

	"borderpatrol/internal/enforcer"
	"borderpatrol/internal/ipv4"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantP  float64
		wantOK bool
	}{
		{n: 1000, p: 0.99, want: 990, wantP: 0.99, wantOK: true},       // 10 beyond: p99 stands
		{n: 1000, p: 0.50, want: 500, wantP: 0.50, wantOK: true},       // median
		{n: 999, p: 0.99, want: 989, wantP: 989.0 / 999, wantOK: true}, // ⌈989.01⌉ = 990 leaves 9: fall back
		{n: 50, p: 0.99, want: 40, wantP: 0.8, wantOK: true},           // p80 is the highest with 10 beyond
		{n: 120, p: 0.90, want: 108, wantP: 0.9, wantOK: true},         // 12 beyond p90
		{n: 11, p: 0.5, want: 1, wantP: 1.0 / 11, wantOK: true},        // only the minimum qualifies
		{n: 10, p: 0.5, wantOK: false},                                 // nothing has 10 beyond
	}
	for _, c := range cases {
		q, ok := tailQuantile(seq(c.n), c.p)
		if ok != c.wantOK {
			t.Fatalf("n=%d p=%v: ok=%v, want %v", c.n, c.p, ok, c.wantOK)
		}
		if !ok {
			continue
		}
		if q.Value != c.want || q.P != c.wantP || q.N != c.n {
			t.Errorf("n=%d p=%v: got %+v, want value %v at p=%v", c.n, c.p, q, c.want, c.wantP)
		}
		if beyond := c.n - int(q.Value); beyond < minTail {
			t.Errorf("n=%d p=%v: only %d samples beyond the reported value", c.n, c.p, beyond)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {130, 150}}, 70},
		{"overlapping workers count once", []interval{{110, 160}, {120, 170}}, 40},
		{"nested child inside a child", []interval{{110, 170}, {120, 130}}, 40},
		{"child sticking out is clipped", []interval{{90, 120}, {190, 260}}, 70},
		{"child outside the parent", []interval{{10, 50}, {250, 300}}, 100},
		{"children cover everything", []interval{{100, 150}, {140, 200}}, 0},
		{"touching intervals", []interval{{110, 120}, {120, 130}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOracleFlipsWithThePolicyRevision(t *testing.T) {
	data := &ipv4.Packet{Payload: nil} // no transport header: treated as data
	allowed := &funcRef{vendor: 3, vendorInStack: true}
	elsewhere := &funcRef{vendor: 4, vendorInStack: true}
	tracker := &funcRef{vendor: 3, vendorInStack: true, tracker: true}
	native := &funcRef{vendor: 3, native: true}

	steps := []struct {
		denied int
		fn     *funcRef
		want   fate
	}{
		{-1, allowed, fate{delivered: true, response: true}},
		{3, allowed, fate{cause: enforcer.DropPolicy}}, // push denies vendor 3
		{3, elsewhere, fate{delivered: true, response: true}},
		{-1, allowed, fate{delivered: true, response: true}}, // next push lifts it
		{-1, tracker, fate{cause: enforcer.DropPolicy}},
		{3, tracker, fate{cause: enforcer.DropPolicy}},
		{-1, native, fate{cause: enforcer.DropUntagged}},
	}
	for i, s := range steps {
		if got := expect(s.fn, s.denied, data); got != s.want {
			t.Errorf("step %d (denied=%d): expect = %+v, want %+v", i, s.denied, got, s.want)
		}
	}
}

// TestPushFlipsLiveVerdicts runs policy_push traffic on a real deployment
// and checks that pushes do flip the verdicts of live connections — so the
// oracle's zero-mismatch gate is exercised on stale-verdict cases — and
// that the gateway agrees with the oracle on every packet.
func TestPushFlipsLiveVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles the paper-scale deployment")
	}
	spec, _ := findWorkload("policy_push")
	d, err := newDeployment(7, spec.requests, &auditSink{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	g := newGenerator(d, spec, 7)
	flipped := 0
	for r := 0; r < 200; r++ {
		wasDenied := d.live.denied
		g.step()
		denied := d.live.denied
		if denied == wasDenied || denied < 0 {
			continue
		}
		// A push just denied a vendor: count live connections it covers
		// that the previous revision allowed.
		for i := range g.slots {
			s := &g.slots[i]
			if s.fn != nil && s.next < len(s.pkts) && !s.fn.tracker && s.fn.vendor == denied && s.fn.vendorInStack {
				flipped++
			}
		}
	}
	if g.failed > 0 {
		t.Fatalf("%d oracle mismatches; first: %s", g.failed, g.firstFailure)
	}
	if g.pushes == 0 || flipped == 0 {
		t.Fatalf("pushes=%d flipped live connections=%d: the workload never flips a verdict", g.pushes, flipped)
	}
}
