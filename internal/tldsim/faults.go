package tldsim

import (
	"time"

	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/simtime"
)

// Fault profiles for materialized worlds: the paper's sweeps ran against
// live infrastructure where operators drop packets, serve lame answers,
// and go dark for days. These helpers declare such flaky operators for a
// materialized day so the resilient scan path can be exercised — and its
// failure accounting verified — against a known fault schedule.

// OperatorOutage declares a dark window for one operator's nameserver: it
// times out on every simulated day in [from, to].
func OperatorOutage(operator string, from, to simtime.Day) faultnet.Rule {
	return faultnet.Rule{Pattern: nsFor(operator), OutageFrom: from, OutageTo: to}
}

// SlowOperator adds fixed latency to one operator's nameserver.
func SlowOperator(operator string, latency time.Duration) faultnet.Rule {
	return faultnet.Rule{Pattern: nsFor(operator), Latency: latency}
}

// FaultyExchanger wraps the materialized network in a fault injector bound
// to the materialized day, so scheduled outages line up with the day being
// measured.
func (m *Materialized) FaultyExchanger(seed int64, rules ...faultnet.Rule) *faultnet.Injector {
	day := m.Day
	return faultnet.New(m.Net, seed, func() simtime.Day { return day }, rules...)
}

// NSHostOf exposes the operator→nameserver mapping for tests and tools
// that need to address one operator's server directly.
func NSHostOf(operator string) string { return nsFor(operator) }

var _ exchange.Exchanger = (*faultnet.Injector)(nil)
