package faultnet

import (
	"context"
	"errors"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/simtime"
)

// retryTestPolicy keeps backoff negligible so tests run fast.
func retryTestPolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
}

// okExchanger answers every query with a one-record success.
type okExchanger struct{ calls int }

func (e *okExchanger) Exchange(_ context.Context, _ string, q *dnswire.Message) (*dnswire.Message, error) {
	e.calls++
	resp := q.Reply()
	resp.Authoritative = true
	resp.Answers = append(resp.Answers, dnswire.NewRR(q.Questions[0].Name, 300, &dnswire.NS{Host: "ns1.ok.example"}))
	return resp, nil
}

func query(id uint16, name string) *dnswire.Message {
	return dnswire.NewQuery(id, name, dnswire.TypeNS)
}

func TestPassThroughWithoutMatchingRule(t *testing.T) {
	inner := &okExchanger{}
	in := New(inner, 1, nil, Rule{Pattern: "ns1.flaky.example", Loss: 1})
	resp, err := in.Exchange(context.Background(), "ns1.solid.example", query(1, "a.com"))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("pass-through: %v %v", resp, err)
	}
	if in.Total() != 0 {
		t.Errorf("faults injected on unmatched server: %d", in.Total())
	}
}

func TestPatternMatching(t *testing.T) {
	cases := []struct {
		pattern, addr string
		want          bool
	}{
		{"*", "anything", true},
		{"ns1.op.example", "ns1.op.example", true},
		{"ns1.op.example", "ns2.op.example", false},
		{"*.op.example", "ns1.op.example", true},
		{"*.op.example", "deep.ns1.op.example", true},
		{"*.op.example", "op.example", false},
	}
	for _, c := range cases {
		r := Rule{Pattern: c.pattern}
		if got := r.matches(c.addr); got != c.want {
			t.Errorf("pattern %q vs %q: %v, want %v", c.pattern, c.addr, got, c.want)
		}
	}
}

func TestTotalLossAlwaysTimesOut(t *testing.T) {
	in := New(&okExchanger{}, 7, nil, Rule{Pattern: "*", Loss: 1})
	_, err := in.Exchange(context.Background(), "ns1.op.example", query(1, "a.com"))
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Class != ClassLoss {
		t.Fatalf("err: %v", err)
	}
	if !fe.Timeout() {
		t.Error("loss fault not marked as timeout")
	}
	if in.Stats()[ClassLoss] != 1 || in.Total() != 1 {
		t.Errorf("stats: %v", in.Stats())
	}
}

func TestRCodeSubstitution(t *testing.T) {
	in := New(&okExchanger{}, 7, nil,
		Rule{Pattern: "sf.example", ServFail: 1},
		Rule{Pattern: "ref.example", Refused: 1},
	)
	resp, err := in.Exchange(context.Background(), "sf.example", query(1, "a.com"))
	if err != nil || resp.RCode != dnswire.RCodeServerFailure {
		t.Fatalf("servfail: %v %v", resp, err)
	}
	resp, err = in.Exchange(context.Background(), "ref.example", query(2, "a.com"))
	if err != nil || resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("refused: %v %v", resp, err)
	}
	if in.Stats()[ClassServFail] != 1 || in.Stats()[ClassRefused] != 1 {
		t.Errorf("stats: %v", in.Stats())
	}
}

func TestTruncationStripsAnswers(t *testing.T) {
	in := New(&okExchanger{}, 7, nil, Rule{Pattern: "*", Truncate: 1})
	resp, err := in.Exchange(context.Background(), "ns1.op.example", query(1, "a.com"))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || len(resp.Answers) != 0 {
		t.Errorf("truncated response: TC=%v answers=%d", resp.Truncated, len(resp.Answers))
	}
}

func TestScheduledOutage(t *testing.T) {
	day := simtime.Date(2016, 6, 1)
	clock := func() simtime.Day { return day }
	in := New(&okExchanger{}, 7, clock, Rule{
		Pattern:    "ns1.op.example",
		OutageFrom: simtime.Date(2016, 6, 10),
		OutageTo:   simtime.Date(2016, 6, 12),
	})
	if _, err := in.Exchange(context.Background(), "ns1.op.example", query(1, "a.com")); err != nil {
		t.Fatalf("before outage: %v", err)
	}
	day = simtime.Date(2016, 6, 11)
	_, err := in.Exchange(context.Background(), "ns1.op.example", query(2, "a.com"))
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Class != ClassOutage {
		t.Fatalf("during outage: %v", err)
	}
	day = simtime.Date(2016, 6, 13)
	if _, err := in.Exchange(context.Background(), "ns1.op.example", query(3, "a.com")); err != nil {
		t.Fatalf("after outage: %v", err)
	}
	if in.Stats()[ClassOutage] != 1 {
		t.Errorf("outage count: %v", in.Stats())
	}
}

func TestLatencyHonorsContext(t *testing.T) {
	in := New(&okExchanger{}, 7, nil, Rule{Pattern: "*", Latency: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := in.Exchange(ctx, "ns1.op.example", query(1, "a.com")); err == nil {
		t.Error("expected context error under injected latency")
	}
	if time.Since(start) > time.Second {
		t.Error("latency sleep ignored the context")
	}
}

// TestDeterministicSchedule checks the core reproducibility property: the
// same seed over the same question sequence injects byte-identical fault
// schedules, regardless of the interleaving of distinct questions, and a
// retried question redraws per attempt.
func TestDeterministicSchedule(t *testing.T) {
	run := func(order []string) map[Class]int64 {
		in := New(&okExchanger{}, 99, nil, Rule{Pattern: "*", Loss: 0.3, ServFail: 0.2})
		for i, name := range order {
			// Two attempts per question, as a retrying client would.
			for a := 0; a < 2; a++ {
				in.Exchange(context.Background(), "ns1.op.example", query(uint16(i), name))
			}
		}
		return in.Stats()
	}
	names := []string{"a.com", "b.com", "c.com", "d.com", "e.com", "f.com", "g.com", "h.com"}
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	a, b := run(names), run(reversed)
	for _, class := range []Class{ClassLoss, ClassServFail} {
		if a[class] != b[class] {
			t.Errorf("%s schedule order-dependent: %v vs %v", class, a, b)
		}
	}
	if a[ClassLoss]+a[ClassServFail] == 0 {
		t.Error("no faults injected at 50% combined probability over 16 attempts")
	}
}

// TestRetryRecoversThroughInjector drives the full middleware stack —
// retry layer over injector over clean transport — and checks the
// retries-plus-failures identity that the sweep health report relies on.
func TestRetryRecoversThroughInjector(t *testing.T) {
	inner := &okExchanger{}
	in := New(inner, 3, nil, Rule{Pattern: "*", Loss: 0.4})
	rex := exchange.NewRetry(in, retryTestPolicy())
	ok, failed := 0, 0
	for i := 0; i < 200; i++ {
		name := string(rune('a'+i%26)) + "x.com"
		if _, err := rex.Exchange(context.Background(), "ns1.op.example", query(uint16(i), name)); err != nil {
			failed++
		} else {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("nothing recovered under 40% loss with retries")
	}
	if got := rex.Retries() + rex.Failures(); got != in.Total() {
		t.Errorf("fault accounting: retries(%d) + failures(%d) != injected(%d)",
			rex.Retries(), rex.Failures(), in.Total())
	}
}

func TestInjectorComposesAsExchangeMiddleware(t *testing.T) {
	inner := &okExchanger{}
	inj := New(nil, 42, nil, Rule{Pattern: "ns1.flaky.example", Loss: 1})
	st, err := exchange.Build(exchange.Options{
		Transport:  inner,
		Middleware: []exchange.Middleware{inj.Middleware()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exchange(context.Background(), "ns1.flaky.example", query(1, "a.com")); err == nil {
		t.Fatal("loss=1 rule did not fault through the stack")
	}
	if inj.Stats()[ClassLoss] != 1 {
		t.Errorf("fault counters through middleware: %v", inj.Stats())
	}
	// A lost packet never reaches the layers below the injector: neither
	// the Tap nor the transport may see it.
	if st.Counters().Transport.Exchanges != 0 {
		t.Errorf("lost query reached the tap: %+v", st.Counters().Transport)
	}
	if inner.calls != 0 {
		t.Errorf("lost query reached the transport: %d calls", inner.calls)
	}
	resp, err := st.Exchange(context.Background(), "ns1.solid.example", query(2, "a.com"))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("unmatched server through stack: %v %v", resp, err)
	}
	if st.Counters().Transport.Exchanges != 1 {
		t.Errorf("tap exchanges = %d, want 1", st.Counters().Transport.Exchanges)
	}
}
