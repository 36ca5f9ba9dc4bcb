package tldsim

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// Materialized is a day of the simulated world turned into real, signed DNS
// served on an in-memory network: a root zone, one signed TLD zone per TLD
// with genuine NS/DS delegations, and one authoritative server per DNS
// operator with genuinely signed (or unsigned, or mismatched) child zones.
//
// The scan engine runs against this exactly as it would against production
// servers, which lets tests verify that the world model's aggregate counts
// equal what live measurement observes.
type Materialized struct {
	Net        *dnsserver.MemNet
	Anchor     []*dnswire.DS
	TLDServers map[string]string
	Day        simtime.Day
}

// Materialize builds real DNS state for the given domains as of day. Only
// pass the domains you intend to scan — materialization does real key
// generation and signing per signed domain.
//
// The build runs in three phases: the TLD zones are created in
// first-occurrence order, every child zone is built and signed (and its DS
// set derived) on a GOMAXPROCS worker pool, and the children are merged
// into their TLD zones and operator servers in index order. Everything
// order-dependent — root delegation order, TLD zone contents, server
// registration, the seeded broken-DS digests — happens in the serial
// phases or is keyed by the slice index, so the served answers do not
// depend on the worker count.
func Materialize(day simtime.Day, domains []DomainState) (*Materialized, error) {
	return materialize(context.Background(), day, domains)
}

// materialize is Materialize with cancellation: a cancelled ctx stops the
// child-signing pool and the build returns ctx's error.
func materialize(ctx context.Context, day simtime.Day, domains []DomainState) (*Materialized, error) {
	now := day.Time()
	net := dnsserver.NewMemNet()
	net.Strict = true
	m := &Materialized{Net: net, TLDServers: make(map[string]string), Day: day}

	// Root and TLD skeletons.
	rootZone := zone.New("")
	rootZone.MustAdd(dnswire.NewRR("", 86400, &dnswire.SOA{
		MName: "a.root-servers.net", RName: "nstld.verisign-grs.com",
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}))
	rootZone.MustAdd(dnswire.NewRR("", 86400, &dnswire.NS{Host: "a.root-servers.net"}))
	rootSigner, err := newSigner(now)
	if err != nil {
		return nil, err
	}

	// Phase 1: TLD zones, signed and delegated from the root in the order
	// their TLDs first occur.
	tldZones := make(map[string]*zone.Zone)
	tldSigners := make(map[string]*zone.Signer)
	for i := range domains {
		tld := domains[i].TLD
		if _, ok := tldZones[tld]; ok {
			continue
		}
		ns := tldServerName(tld)
		z := zone.New(tld)
		z.MustAdd(dnswire.NewRR(tld, 86400, &dnswire.SOA{
			MName: ns, RName: "hostmaster." + ns,
			Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 3600,
		}))
		z.MustAdd(dnswire.NewRR(tld, 86400, &dnswire.NS{Host: ns}))
		signer, err := newSigner(now)
		if err != nil {
			return nil, err
		}
		if err := signer.Sign(z); err != nil {
			return nil, err
		}
		tldZones[tld], tldSigners[tld] = z, signer
		srv := dnsserver.NewAuthoritative()
		srv.AddZone(z)
		net.Register(ns, srv)
		m.TLDServers[tld] = ns
		// Delegate in the root.
		rootZone.MustAdd(dnswire.NewRR(tld, 86400, &dnswire.NS{Host: ns}))
		dss, err := signer.DSRecords(tld, dnswire.DigestSHA256)
		if err != nil {
			return nil, err
		}
		for _, ds := range dss {
			rootZone.MustAdd(dnswire.NewRR(tld, 86400, ds))
		}
	}

	// Phase 2: child zones, each a pure function of its domain, its index
	// and the day, built and signed in parallel into per-index slots.
	children := make([]childZone, len(domains))
	if err := forEachParallel(ctx, len(domains), func(i int) (err error) {
		children[i], err = buildChild(day, i, &domains[i])
		return err
	}); err != nil {
		return nil, err
	}

	// Phase 3: merge in index order — delegations and DS sets into the TLD
	// zones, child zones onto their operators' servers.
	operatorSrvs := make(map[string]*dnsserver.Authoritative)
	for i := range domains {
		d, c := &domains[i], &children[i]
		tz := tldZones[d.TLD]
		tz.MustAdd(dnswire.NewRR(d.Name, 86400, &dnswire.NS{Host: c.nsHost}))
		if d.DSDay <= day {
			for _, rec := range c.ds {
				tz.MustAdd(dnswire.NewRR(d.Name, 86400, rec))
			}
			if err := tldSigners[d.TLD].SignSet(tz, d.Name, dnswire.TypeDS); err != nil {
				return nil, err
			}
		}
		srv, ok := operatorSrvs[c.nsHost]
		if !ok {
			srv = dnsserver.NewAuthoritative()
			operatorSrvs[c.nsHost] = srv
			net.Register(c.nsHost, srv)
		}
		srv.AddZone(c.zone)
	}

	if err := rootSigner.Sign(rootZone); err != nil {
		return nil, err
	}
	rootSrv := dnsserver.NewAuthoritative()
	rootSrv.AddZone(rootZone)
	net.Register("a.root-servers.net", rootSrv)
	anchor, err := rootSigner.DSRecords("", dnswire.DigestSHA256)
	if err != nil {
		return nil, err
	}
	m.Anchor = anchor
	return m, nil
}

// newSigner generates a fresh ed25519 signer whose signatures stay valid
// for two years after now.
func newSigner(now time.Time) (*zone.Signer, error) {
	s, err := zone.NewSigner(dnswire.AlgED25519, now)
	if err != nil {
		return nil, err
	}
	s.Expiration = now.AddDate(2, 0, 0)
	return s, nil
}

// childZone is one domain's contribution to a materialization: its zone
// (signed if the domain has a key on the day), its nameserver host and the
// DS set its TLD publishes (nil before the domain's DS day).
type childZone struct {
	zone   *zone.Zone
	nsHost string
	ds     []*dnswire.DS
}

// buildChild builds domain d, the i-th of its materialization, as of day.
// It touches no shared state, so children build concurrently.
func buildChild(day simtime.Day, i int, d *DomainState) (childZone, error) {
	now := day.Time()
	nsHost := nsFor(d.Operator)
	child := zone.New(d.Name)
	child.MustAdd(dnswire.NewRR(d.Name, 3600, &dnswire.SOA{
		MName: nsHost, RName: "hostmaster." + d.Name,
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	child.MustAdd(dnswire.NewRR(d.Name, 3600, &dnswire.NS{Host: nsHost}))
	child.MustAdd(dnswire.NewRR("www."+d.Name, 300, &dnswire.A{Addr: netip.MustParseAddr("203.0.113.80")}))
	c := childZone{zone: child, nsHost: nsHost}

	var childSigner *zone.Signer
	if d.KeyDay <= day {
		var err error
		if childSigner, err = newSigner(now); err != nil {
			return c, err
		}
		if d.ExpiredSig {
			// The operator let its signatures lapse: the served RRSIGs
			// ended a month before the measurement day.
			childSigner.Inception = now.AddDate(0, -3, 0)
			childSigner.Expiration = now.AddDate(0, -1, 0)
		}
		if err := childSigner.Sign(child); err != nil {
			return c, err
		}
	}
	if d.DSDay > day {
		return c, nil
	}
	if d.BrokenDS || childSigner == nil {
		// A DS that matches nothing served: either the registrar
		// accepted garbage, or the zone was unsigned behind it.
		digest := make([]byte, 32)
		rand.New(rand.NewSource(int64(i))).Read(digest)
		c.ds = []*dnswire.DS{{
			KeyTag: uint16(i + 1), Algorithm: dnswire.AlgED25519,
			DigestType: dnswire.DigestSHA256, Digest: digest,
		}}
		return c, nil
	}
	var err error
	c.ds, err = childSigner.DSRecords(d.Name, dnswire.DigestSHA256)
	return c, err
}

// forEachParallel calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines. It stops handing out work at the first error or when ctx is
// cancelled, and returns the error of the lowest failed index (or ctx's
// error).
func forEachParallel(ctx context.Context, n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// tldServerName is the deterministic authoritative-server name for a TLD
// registry. Chunked materializations rely on it: every chunk of a day
// rebuilds the TLD zone but addresses it by the same name, so one
// TLDServers map is valid for the whole day.
func tldServerName(tld string) string { return "ns1." + tld + "-registry.example" }

// Sample materializes n deterministically (seeded) sampled domains as a
// slice. It is the test/ablation form: at population scale the slice
// itself is the memory problem, so production sweeps hold the cursor from
// SampleSource instead and never materialize the draw.
func (w *World) Sample(n int, seed int64) []DomainState {
	return Domains(w.SampleSource(n, seed))
}

// BuildAgents constructs live registrar agents for the whole catalogue on
// top of an existing registry substrate, wiring reseller partnerships. It
// returns the agents keyed by policy ID together with the probe-ordered
// lists for Tables 2 and 3.
func BuildAgents(registries map[string]*registry.Registry, net *dnsserver.MemNet, clock func() simtime.Day) (byID map[string]*registrar.Registrar, top20, top10 []*registrar.Registrar, err error) {
	specs := RegistrarSpecs()
	byID = make(map[string]*registrar.Registrar, len(specs))
	for _, spec := range specs {
		p := spec.Policy
		// Only wire roles for TLDs the substrate actually has.
		roles := make(map[string]registrar.Role, len(p.Roles))
		for tld, role := range p.Roles {
			if role.Kind == registrar.RoleRegistrar {
				if _, ok := registries[tld]; !ok {
					continue
				}
			}
			roles[tld] = role
		}
		p.Roles = roles
		agent, aerr := registrar.New(p, registrar.Deps{
			Registries: registries,
			Net:        net,
			Clock:      clock,
			Rng:        rand.New(rand.NewSource(int64(len(p.ID)) * 2654435761)),
		})
		if aerr != nil {
			return nil, nil, nil, fmt.Errorf("tldsim: building %s: %w", p.Name, aerr)
		}
		byID[p.ID] = agent
	}
	// Partner wiring pass.
	for _, spec := range specs {
		agent := byID[spec.Policy.ID]
		for tld, role := range spec.Policy.Roles {
			if role.Kind == registrar.RoleReseller {
				partner, ok := byID[role.Partner]
				if !ok {
					return nil, nil, nil, fmt.Errorf("tldsim: %s names unknown partner %s", spec.Policy.ID, role.Partner)
				}
				agent.SetPartner(tld, partner)
			}
		}
	}
	for _, spec := range specs {
		if spec.Top20 {
			top20 = append(top20, byID[spec.Policy.ID])
		}
		if spec.Top10DNSSEC {
			top10 = append(top10, byID[spec.Policy.ID])
		}
	}
	return byID, top20, top10, nil
}
