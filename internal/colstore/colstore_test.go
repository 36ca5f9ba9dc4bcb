package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// randomDomains draws an adversarial synthetic population: every combo of
// Never/real key and DS days, broken/expired flags, shared and unique
// operators, all five TLDs plus an oddball.
func randomDomains(rng *rand.Rand, n int) []Domain {
	tlds := []string{"com", "net", "org", "nl", "se", "xyz"}
	ops := make([]string, 1+rng.Intn(12))
	for i := range ops {
		ops[i] = fmt.Sprintf("op%02d.example", i)
	}
	day := func() simtime.Day {
		if rng.Intn(4) == 0 {
			return simtime.Never
		}
		return simtime.Day(rng.Intn(900) - 100)
	}
	out := make([]Domain, n)
	for i := range out {
		op := ops[rng.Intn(len(ops))]
		reg := ""
		if rng.Intn(2) == 0 {
			reg = "Reg-" + op
		}
		out[i] = Domain{
			Name:       fmt.Sprintf("d%05d.%s", i, op),
			TLD:        tlds[rng.Intn(len(tlds))],
			Operator:   op,
			Registrar:  reg,
			NSHost:     "ns1." + op,
			KeyDay:     day(),
			DSDay:      day(),
			BrokenDS:   rng.Intn(8) == 0,
			ExpiredSig: rng.Intn(8) == 0,
		}
	}
	return out
}

// buildIndex builds an index the way world generation does: the rows are
// cut into shards of uneven sizes, each interning locally, and merged in
// order.
func buildIndex(domains []Domain) *Index {
	sizes := []int{1, 5, 64, 333}
	var shards []*Shard
	for lo, k := 0, 0; lo < len(domains); k++ {
		hi := min(lo+sizes[k%len(sizes)], len(domains))
		s := NewShard(hi - lo)
		for _, d := range domains[lo:hi] {
			s.Add(d)
		}
		shards = append(shards, s)
		lo = hi
	}
	return MergeShards(shards)
}

// refRecord is the oracle projection: a domain's record on one day,
// derived field by field from its history.
func refRecord(d *Domain, day simtime.Day) dataset.Record {
	hasKey := d.KeyDay <= day
	hasDS := d.DSDay <= day
	return dataset.Record{
		Domain:     d.Name,
		TLD:        d.TLD,
		NSHosts:    []string{d.NSHost},
		Operator:   d.Operator,
		HasDNSKEY:  hasKey,
		HasRRSIG:   hasKey,
		HasDS:      hasDS,
		ChainValid: hasKey && hasDS && !d.BrokenDS && !d.ExpiredSig,
	}
}

func refSnapshot(domains []Domain, day simtime.Day) *dataset.Snapshot {
	snap := &dataset.Snapshot{Day: day, Records: make([]dataset.Record, 0, len(domains))}
	for i := range domains {
		snap.Records = append(snap.Records, refRecord(&domains[i], day))
	}
	return snap
}

// refSeries is the oracle series: the original full-scan SeriesFor logic.
func refSeries(domains []Domain, operator, tld string, from, to simtime.Day, stepDays int) []analysis.SeriesPoint {
	if stepDays <= 0 {
		stepDays = 1
	}
	var out []analysis.SeriesPoint
	for day := from; day <= to; day += simtime.Day(stepDays) {
		p := analysis.SeriesPoint{Day: day}
		for i := range domains {
			d := &domains[i]
			if d.Operator != operator || (tld != "" && d.TLD != tld) {
				continue
			}
			p.Total++
			if d.KeyDay != simtime.Never && d.KeyDay <= day {
				p.WithDNSKEY++
			}
			if d.DSDay != simtime.Never && d.DSDay <= day {
				p.WithDS++
				if !d.BrokenDS && !d.ExpiredSig {
					full := d.DSDay
					if d.KeyDay > full {
						full = d.KeyDay
					}
					if full <= day {
						p.Full++
					}
				}
			}
		}
		out = append(out, p)
	}
	return out
}

func classFilter(c Class) analysis.Filter {
	switch c {
	case ClassAny:
		return analysis.All
	case ClassDNSKEY:
		return analysis.WithDNSKEY
	case ClassPartial:
		return analysis.PartiallyDeployed
	case ClassFull:
		return analysis.FullyDeployed
	case ClassBroken:
		return func(r *dataset.Record) bool { return r.Deployment() == DeploymentBrokenRef }
	case ClassNone:
		return func(r *dataset.Record) bool { return r.Deployment() == DeploymentNoneRef }
	}
	panic("unknown class")
}

// Re-derive the dnssec constants through a record so the test does not
// import dnssec directly.
var (
	DeploymentNoneRef   = (&dataset.Record{}).Deployment()
	DeploymentBrokenRef = (&dataset.Record{HasDS: true}).Deployment()
)

func tldFilter(tlds []string) analysis.Filter {
	if len(tlds) == 0 {
		return analysis.All
	}
	set := map[string]bool{}
	for _, t := range tlds {
		set[t] = true
	}
	return func(r *dataset.Record) bool { return set[r.TLD] }
}

func TestSnapshotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		domains := randomDomains(rng, rng.Intn(400))
		idx := buildIndex(domains)
		for _, day := range []simtime.Day{-200, 0, 17, 400, 850, simtime.Never} {
			got := idx.Snapshot(day)
			want := refSnapshot(domains, day)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d day %v: snapshot mismatch", trial, day)
			}
		}
	}
}

func TestSeriesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		domains := randomDomains(rng, rng.Intn(300))
		idx := buildIndex(domains)
		operator := "op00.example"
		if len(domains) > 0 && rng.Intn(4) > 0 {
			operator = domains[rng.Intn(len(domains))].Operator
		}
		if rng.Intn(8) == 0 {
			operator = "no-such-op.example"
		}
		tld := ""
		switch rng.Intn(3) {
		case 1:
			tld = []string{"com", "net", "org", "nl", "se", "xyz"}[rng.Intn(6)]
		case 2:
			tld = "nosuchtld"
		}
		from := simtime.Day(rng.Intn(1000) - 300)
		to := from + simtime.Day(rng.Intn(500)-50) // sometimes from > to
		step := rng.Intn(40) - 5                   // sometimes <= 0
		got := idx.Series(operator, tld, from, to, step)
		want := refSeries(domains, operator, tld, from, to, step)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: series mismatch for op=%s tld=%q [%v,%v] step %d\ngot  %v\nwant %v",
				trial, operator, tld, from, to, step, got, want)
		}
	}
}

func TestAggregationsMatchAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		domains := randomDomains(rng, rng.Intn(600))
		idx := buildIndex(domains)
		day := simtime.Day(rng.Intn(900) - 50)
		snap := refSnapshot(domains, day)
		tldSets := [][]string{nil, {"com", "net", "org"}, {"se"}, {"nosuch"}}
		for _, tlds := range tldSets {
			for _, c := range []Class{ClassAny, ClassDNSKEY, ClassPartial, ClassFull, ClassBroken, ClassNone} {
				f := analysis.And(tldFilter(tlds), classFilter(c))
				gotCounts := idx.CountByOperator(day, c, tlds...)
				wantCounts := analysis.CountByOperator(snap, f)
				if len(gotCounts) == 0 && len(wantCounts) == 0 {
					// DeepEqual distinguishes nil from empty; both mean none.
				} else if !reflect.DeepEqual(gotCounts, wantCounts) {
					t.Fatalf("trial %d class %d tlds %v: counts mismatch\ngot  %v\nwant %v",
						trial, c, tlds, gotCounts, wantCounts)
				}
				gotCDF := idx.OperatorCDF(day, c, tlds...)
				wantCDF := analysis.OperatorCDF(snap, f)
				if !reflect.DeepEqual(gotCDF, wantCDF) {
					t.Fatalf("trial %d class %d tlds %v: CDF mismatch", trial, c, tlds)
				}
			}
			gotGap := idx.DSGapPct(day, tlds...)
			wantGap := analysis.DSGapPct(snap, tldFilter(tlds))
			if gotGap != wantGap {
				t.Fatalf("trial %d tlds %v: DS gap %.6f != %.6f", trial, tlds, gotGap, wantGap)
			}
		}
		order := []string{"com", "net", "org", "nl", "se", "xyz", "missing"}
		gotOv := idx.Overview(day, order)
		wantOv := analysis.Overview(snap, order)
		if !reflect.DeepEqual(gotOv, wantOv) {
			t.Fatalf("trial %d: overview mismatch\ngot  %v\nwant %v", trial, gotOv, wantOv)
		}
	}
}

func TestRegistrarCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	domains := randomDomains(rng, 500)
	idx := buildIndex(domains)
	day := simtime.Day(300)
	for _, tlds := range [][]string{nil, {"com"}, {"nl", "se"}} {
		want := map[string]int{}
		wantKeyed := map[string]int{}
		set := map[string]bool{}
		for _, t := range tlds {
			set[t] = true
		}
		for i := range domains {
			d := &domains[i]
			if d.Registrar == "" || (len(set) > 0 && !set[d.TLD]) {
				continue
			}
			want[d.Registrar]++
			if d.KeyDay <= day {
				wantKeyed[d.Registrar]++
			}
		}
		if got := idx.DomainsByRegistrar(tlds...); !reflect.DeepEqual(got, want) {
			t.Fatalf("DomainsByRegistrar(%v) = %v, want %v", tlds, got, want)
		}
		if got := idx.DNSKEYByRegistrar(day, tlds...); !reflect.DeepEqual(got, wantKeyed) {
			t.Fatalf("DNSKEYByRegistrar(%v) = %v, want %v", tlds, got, wantKeyed)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := buildIndex(nil)
	if idx.Len() != 0 || idx.Operators() != 0 {
		t.Fatal("empty index has population")
	}
	if snap := idx.Snapshot(10); len(snap.Records) != 0 {
		t.Fatal("empty snapshot has records")
	}
	pts := idx.Series("x", "", 0, 2, 1)
	if len(pts) != 3 || pts[0].Total != 0 {
		t.Fatalf("series over empty index: %v", pts)
	}
	if cdf := idx.OperatorCDF(10, ClassAny); cdf != nil {
		t.Fatalf("CDF over empty index: %v", cdf)
	}
}

func TestSharedNSHostSlices(t *testing.T) {
	domains := []Domain{
		{Name: "a.com", TLD: "com", Operator: "op.example", NSHost: "ns1.op.example", KeyDay: simtime.Never, DSDay: simtime.Never},
		{Name: "b.com", TLD: "com", Operator: "op.example", NSHost: "ns1.op.example", KeyDay: simtime.Never, DSDay: simtime.Never},
	}
	idx := buildIndex(domains)
	snap := idx.Snapshot(100)
	if &snap.Records[0].NSHosts[0] != &snap.Records[1].NSHosts[0] {
		t.Error("records of one operator should share one NS-host slice")
	}
	snap2 := idx.Snapshot(200)
	if &snap.Records[0].NSHosts[0] != &snap2.Records[0].NSHosts[0] {
		t.Error("NS-host slice should be shared across snapshots")
	}
}

// TestSnapshotAllocs guards the interned snapshot path against alloc
// regressions: materializing N records must stay O(1) allocations (the
// snapshot struct and one records slice), not O(N).
func TestSnapshotAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	domains := randomDomains(rng, 5000)
	idx := buildIndex(domains)
	allocs := testing.AllocsPerRun(10, func() {
		if snap := idx.Snapshot(400); len(snap.Records) != 5000 {
			t.Fatal("bad snapshot")
		}
	})
	if allocs > 4 {
		t.Errorf("Snapshot allocates %.1f objects per call, want <= 4", allocs)
	}
}

// TestSeriesAllocs guards the incremental series sweep: one output slice
// plus bounded cursor state, independent of population size.
func TestSeriesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	domains := randomDomains(rng, 5000)
	idx := buildIndex(domains)
	op := domains[0].Operator
	allocs := testing.AllocsPerRun(10, func() {
		if pts := idx.Series(op, "", 0, 700, 1); len(pts) != 701 {
			t.Fatal("bad series")
		}
	})
	if allocs > 8 {
		t.Errorf("Series allocates %.1f objects per call, want <= 8", allocs)
	}
}

// TestMergeShardsSplitInvariance: where the rows are cut into shards must
// not show in the merged index. One shard, uneven shards and one shard per
// row (with empty and nil shards mixed in) serialize to the same bytes.
func TestMergeShardsSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 10; trial++ {
		domains := randomDomains(rng, rng.Intn(800))
		one := NewShard(len(domains))
		perRow := []*Shard{nil, NewShard(0)}
		for _, d := range domains {
			one.Add(d)
			s := NewShard(1)
			s.Add(d)
			perRow = append(perRow, s, nil)
		}
		var want bytes.Buffer
		if err := MergeShards([]*Shard{one}).Save(&want, nil); err != nil {
			t.Fatal(err)
		}
		for name, x := range map[string]*Index{"uneven": buildIndex(domains), "per-row": MergeShards(perRow)} {
			var got bytes.Buffer
			if err := x.Save(&got, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trial %d: %s split of %d rows serializes differently from one shard", trial, name, len(domains))
			}
		}
	}
}
