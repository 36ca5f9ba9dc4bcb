package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
)

// MemNet is an in-memory "network" of DNS servers keyed by address. It lets
// the ecosystem simulation host one logical server per DNS operator —
// tens of thousands of them — without consuming sockets, while exercising
// the same Handler code the real transport runs.
//
// With Strict set, Exchange still round-trips messages through Pack/Unpack,
// so wire-format bugs cannot hide behind the in-memory shortcut.
type MemNet struct {
	// Strict forces a full wire-format round trip on every exchange.
	Strict bool

	mu       sync.RWMutex
	handlers map[string]Handler

	queries atomic.Int64
}

// NewMemNet creates an empty in-memory network.
func NewMemNet() *MemNet {
	return &MemNet{handlers: make(map[string]Handler)}
}

// Register binds a handler to an address, replacing any previous binding.
func (m *MemNet) Register(addr string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[addr] = h
}

// Unregister removes the binding for addr.
func (m *MemNet) Unregister(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, addr)
}

// Lookup returns the handler bound to addr, or nil.
func (m *MemNet) Lookup(addr string) Handler {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.handlers[addr]
}

// Queries returns the number of exchanges performed, for scan accounting.
func (m *MemNet) Queries() int64 { return m.queries.Load() }

// Exchange implements exchange.Exchanger by direct dispatch to the
// registered handler. An unregistered address fails with
// exchange.ErrNoRoute.
func (m *MemNet) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := m.Lookup(server)
	if h == nil {
		return nil, fmt.Errorf("%w: %s", exchange.ErrNoRoute, server)
	}
	m.queries.Add(1)
	if !m.Strict {
		return h.ServeDNS(q), nil
	}
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	var decoded dnswire.Message
	if err := decoded.Unpack(wire); err != nil {
		return nil, err
	}
	resp := h.ServeDNS(&decoded)
	if resp == nil {
		return nil, errors.New("dnsserver: handler returned nil")
	}
	respWire, err := resp.Pack()
	if err != nil {
		return nil, err
	}
	var out dnswire.Message
	if err := out.Unpack(respWire); err != nil {
		return nil, err
	}
	return &out, nil
}
