package tldsim

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/simtime"
)

// TestMaterializeParallelMatchesSerial checks that signing child zones on
// a worker pool leaves nothing observable to the worker count: the TLD
// server table, the root's delegations, every domain's answer shapes and
// the seeded broken-DS records are the same at GOMAXPROCS 1 and 8.
func TestMaterializeParallelMatchesSerial(t *testing.T) {
	w := streamTestWorld(t)
	day := simtime.End
	domains := w.Sample(120, 13)
	// Pin every DS branch: a broken DS over a signed zone, a DS over an
	// unsigned zone, a genuine DS, and lapsed signatures.
	domains[3].KeyDay, domains[3].DSDay, domains[3].BrokenDS = day, day, true
	domains[7].KeyDay, domains[7].DSDay = day+1, day
	domains[11].KeyDay, domains[11].DSDay, domains[11].BrokenDS = day, day, false
	domains[12].KeyDay, domains[12].ExpiredSig = day, true

	build := func(procs int) *Materialized {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := Materialize(day, domains)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, parallel := build(1), build(8)

	if !reflect.DeepEqual(serial.TLDServers, parallel.TLDServers) {
		t.Fatalf("TLD servers differ:\n serial %v\n parallel %v", serial.TLDServers, parallel.TLDServers)
	}
	if s, p := rootDelegations(t, serial), rootDelegations(t, parallel); !reflect.DeepEqual(s, p) {
		t.Fatalf("root delegations differ:\n serial %v\n parallel %v", s, p)
	}

	ctx := context.Background()
	brokenSeen := 0
	for i, d := range domains {
		for _, q := range domainQueries(d) {
			s, err := serial.Net.Exchange(ctx, q.server, dnswire.NewQuery(1, d.Name, q.qtype))
			if err != nil {
				t.Fatal(err)
			}
			p, err := parallel.Net.Exchange(ctx, q.server, dnswire.NewQuery(1, d.Name, q.qtype))
			if err != nil {
				t.Fatal(err)
			}
			if s.RCode != p.RCode || !reflect.DeepEqual(typeCounts(s), typeCounts(p)) {
				t.Fatalf("%s qtype %d: serial rcode %d types %v, parallel rcode %d types %v",
					d.Name, q.qtype, s.RCode, typeCounts(s), p.RCode, typeCounts(p))
			}
		}
		if d.DSDay > day || (!d.BrokenDS && d.KeyDay <= day) {
			continue
		}
		// A DS matching nothing served is seeded by the domain's index
		// in the slice, whichever worker built it.
		digest := make([]byte, 32)
		rand.New(rand.NewSource(int64(i))).Read(digest)
		for _, m := range []*Materialized{serial, parallel} {
			ds := dsAnswers(t, m, d)
			if len(ds) != 1 || ds[0].KeyTag != uint16(i+1) || !bytes.Equal(ds[0].Digest, digest) {
				t.Fatalf("%s (index %d): broken DS %+v, want key tag %d and the index-seeded digest", d.Name, i, ds, i+1)
			}
		}
		brokenSeen++
	}
	if brokenSeen < 2 {
		t.Fatalf("only %d domains exercised the broken-DS branch", brokenSeen)
	}
}

// rootDelegations lists the root zone's delegations in zone order, each
// as its name and NS hosts.
func rootDelegations(t *testing.T, m *Materialized) [][]string {
	t.Helper()
	root := m.Net.Lookup("a.root-servers.net").(*dnsserver.Authoritative).Zone("")
	var out [][]string
	for _, name := range root.Names() {
		if name == "" {
			continue
		}
		row := []string{name}
		for _, rr := range root.Lookup(name, dnswire.TypeNS) {
			row = append(row, rr.Data.(*dnswire.NS).Host)
		}
		out = append(out, row)
	}
	if len(out) == 0 {
		t.Fatal("root zone delegates nothing")
	}
	return out
}

// dsAnswers queries d's DS set at its TLD's registry server.
func dsAnswers(t *testing.T, m *Materialized, d DomainState) []*dnswire.DS {
	t.Helper()
	resp, err := m.Net.Exchange(context.Background(), m.TLDServers[d.TLD], dnswire.NewQuery(1, d.Name, dnswire.TypeDS))
	if err != nil {
		t.Fatal(err)
	}
	var out []*dnswire.DS
	for _, rr := range resp.Answers {
		if ds, ok := rr.Data.(*dnswire.DS); ok {
			out = append(out, ds)
		}
	}
	return out
}
