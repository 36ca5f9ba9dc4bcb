package tldsim

import (
	"math/rand"
	"sort"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// The record-at-a-time oracles. The shipped world is the columnar index
// the streaming build fills in parallel; the functions here recompute the
// same population and its projections one domain at a time over a plain
// []DomainState, so the equivalence tests hold every build and query path
// to an independent, obviously sequential reading of the model.

// sequentialDomains samples the world for cfg one cohort after another
// into []DomainState: the same per-cohort RNG streams (cohortSeed), the
// same draw order (drawDomain) and the same names (domainName) the
// streaming build uses, with none of its sharding or merging.
func sequentialDomains(cfg WorldConfig) ([]DomainState, error) {
	cfg.fill()
	cohorts, err := planCohorts(cfg)
	if err != nil {
		return nil, err
	}
	var out []DomainState
	for ci := range cohorts {
		c := &cohorts[ci]
		rng := rand.New(rand.NewSource(cohortSeed(cfg.Seed, ci)))
		suffix := cohortSuffix(c)
		for i := 0; i < c.Domains; i++ {
			dr := drawDomain(rng, c, &cfg)
			out = append(out, DomainState{
				Name:       domainName(len(out), suffix),
				TLD:        c.TLD,
				Operator:   c.Operator,
				Registrar:  c.Registrar,
				Created:    dr.created,
				KeyDay:     dr.keyDay,
				DSDay:      dr.dsDay,
				BrokenDS:   dr.broken,
				ExpiredSig: dr.expired,
			})
		}
	}
	return out, nil
}

// worldFromRows builds a world over explicit rows through the streaming
// index, for tests that fabricate populations the cohort machinery never
// produces.
func worldFromRows(rows []DomainState) *World {
	s := colstore.NewShard(len(rows))
	for _, d := range rows {
		s.Add(colstore.Domain{
			Name:       d.Name,
			TLD:        d.TLD,
			Operator:   d.Operator,
			Registrar:  d.Registrar,
			NSHost:     nsFor(d.Operator),
			Created:    d.Created,
			KeyDay:     d.KeyDay,
			DSDay:      d.DSDay,
			BrokenDS:   d.BrokenDS,
			ExpiredSig: d.ExpiredSig,
		})
	}
	return &World{idx: colstore.MergeShards([]*colstore.Shard{s})}
}

// recordAt projects one domain onto one measurement day.
func recordAt(d *DomainState, day simtime.Day) dataset.Record {
	hasKey := d.KeyDay <= day
	hasDS := d.DSDay <= day
	return dataset.Record{
		Domain:     d.Name,
		TLD:        d.TLD,
		NSHosts:    []string{nsFor(d.Operator)},
		Operator:   d.Operator,
		HasDNSKEY:  hasKey,
		HasRRSIG:   hasKey,
		HasDS:      hasDS,
		ChainValid: hasKey && hasDS && !d.BrokenDS && !d.ExpiredSig,
	}
}

// snapshotOracle projects every row onto one day, in row order.
func snapshotOracle(rows []DomainState, day simtime.Day) *dataset.Snapshot {
	snap := &dataset.Snapshot{Day: day, Records: make([]dataset.Record, 0, len(rows))}
	for i := range rows {
		snap.Records = append(snap.Records, recordAt(&rows[i], day))
	}
	return snap
}

// seriesOracle computes one operator's deployment series (all its TLDs
// when tld == "") by a full scan of the rows and a sort per event list.
func seriesOracle(rows []DomainState, operator, tld string, from, to simtime.Day, stepDays int) []analysis.SeriesPoint {
	if stepDays <= 0 {
		stepDays = 1
	}
	var keyDays, dsDays, fullDays []simtime.Day
	total := 0
	for i := range rows {
		d := &rows[i]
		if d.Operator != operator || (tld != "" && d.TLD != tld) {
			continue
		}
		total++
		if d.KeyDay != simtime.Never {
			keyDays = append(keyDays, d.KeyDay)
		}
		if d.DSDay != simtime.Never {
			dsDays = append(dsDays, d.DSDay)
			if !d.BrokenDS && !d.ExpiredSig {
				// Full deployment begins when both halves are in place.
				fullDays = append(fullDays, max(d.DSDay, d.KeyDay))
			}
		}
	}
	for _, s := range [][]simtime.Day{keyDays, dsDays, fullDays} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	countLE := func(s []simtime.Day, day simtime.Day) int {
		return sort.Search(len(s), func(i int) bool { return s[i] > day })
	}
	var out []analysis.SeriesPoint
	for day := from; day <= to; day += simtime.Day(stepDays) {
		out = append(out, analysis.SeriesPoint{
			Day:        day,
			Total:      total,
			WithDNSKEY: countLE(keyDays, day),
			WithDS:     countLE(dsDays, day),
			Full:       countLE(fullDays, day),
		})
	}
	return out
}

// sampleOracle draws n rows with the seeded permutation World.Sample
// documents: the first n entries of rand.Perm over the population.
func sampleOracle(rows []DomainState, n int, seed int64) []DomainState {
	if n >= len(rows) {
		return append([]DomainState(nil), rows...)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(rows))[:n]
	out := make([]DomainState, 0, n)
	for _, i := range perm {
		out = append(out, rows[i])
	}
	return out
}
