package mac

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aquago/internal/sim"

	"aquago/internal/channel"
)

func TestContenderIdleChannelGrantsImmediately(t *testing.T) {
	c := NewContender(Config{CarrierSense: true, Seed: 1})
	start, ok := c.Acquire(func(float64) bool { return false }, 2.5, 0.6, 0)
	if !ok || start != 2.5 {
		t.Fatalf("idle channel: got (%g, %v), want (2.5, true)", start, ok)
	}
}

func TestContenderNoCarrierSenseIgnoresBusy(t *testing.T) {
	c := NewContender(Config{CarrierSense: false, Seed: 1})
	start, ok := c.Acquire(func(float64) bool { return true }, 1.0, 0.6, 0)
	if !ok || start != 1.0 {
		t.Fatalf("MAC off: got (%g, %v), want (1.0, true)", start, ok)
	}
}

func TestContenderBacksOffPastBusyInterval(t *testing.T) {
	// Channel busy during [0, 1.0): the grant must land at or after
	// the busy interval ends, aligned to the sense cadence, and the
	// backoff draw makes it strictly later than the first idle poll.
	busyUntil := 1.0
	c := NewContender(Config{CarrierSense: true, PacketDurS: 0.6, Seed: 7})
	start, ok := c.Acquire(func(tS float64) bool { return tS < busyUntil }, 0, 0.6, 0)
	if !ok {
		t.Fatal("no grant on a channel that goes idle")
	}
	if start < busyUntil {
		t.Fatalf("granted %g while channel busy until %g", start, busyUntil)
	}
	// The grant happens on the sense lattice.
	steps := start / SenseIntervalS
	if math.Abs(steps-math.Round(steps)) > 1e-9 {
		t.Fatalf("grant %g off the %gs sense cadence", start, SenseIntervalS)
	}
}

func TestContenderDeadlineGivesUp(t *testing.T) {
	c := NewContender(Config{CarrierSense: true, PacketDurS: 0.6, Seed: 7})
	_, ok := c.Acquire(func(float64) bool { return true }, 0, 0.6, 0.5)
	if ok {
		t.Fatal("granted access on a permanently busy channel")
	}
}

func TestContenderDeterministicDraws(t *testing.T) {
	busy := func(tS float64) bool { return tS < 2.0 }
	run := func() []float64 {
		c := NewContender(Config{CarrierSense: true, PacketDurS: 0.6, Seed: 3})
		var grants []float64
		ready := 0.0
		for i := 0; i < 4; i++ {
			s, ok := c.Acquire(busy, ready, 0.6, 0)
			if !ok {
				t.Fatal("unexpected deadline")
			}
			grants = append(grants, s)
			ready = s + 0.6
		}
		return grants
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grant %d diverged: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestContenderAgreesWithRunNetworkRules cross-checks the incremental
// contender against the batch engine on the scenario both understand:
// one transmitter on an otherwise silent medium transmits exactly at
// its ready times.
func TestContenderAgreesWithRunNetworkRules(t *testing.T) {
	med := sim.New(channel.Bridge)
	med.AddNode(sim.Position{X: 0, Z: 1})
	tx := med.AddNode(sim.Position{X: 5, Z: 1})
	res := RunNetwork(med, []int{tx}, Config{CarrierSense: true, PacketsPerTx: 5, Seed: 2})
	if res.CollisionFraction != 0 || res.Sent != 5 {
		t.Fatalf("batch baseline: %+v", res)
	}
	c := NewContender(Config{CarrierSense: true, Seed: 2})
	start, ok := c.Acquire(func(tS float64) bool { return med.BusyAt(tx, tS) }, 1e6, 0.6, 0)
	if !ok || start != 1e6 {
		t.Fatalf("quiet medium after batch run: got (%g, %v)", start, ok)
	}
}

// TestContenderPPersistentGrantsNearIdle pins the point of the
// p-persistent variant: after a busy interval ends, the grant lands
// within a handful of slots — there is no multi-packet backoff to
// serve. With persist p the deferral count is geometric, so ten slots
// bound it at any reasonable p without flakiness (the draws are
// seeded, so the bound is really a determinism check).
func TestContenderPPersistentGrantsNearIdle(t *testing.T) {
	busyUntil := 3.0
	c := NewContender(Config{CarrierSense: true, Persist: 0.5, Seed: 11})
	start, ok := c.Acquire(func(tS float64) bool { return tS < busyUntil }, 0, 0.6, 0)
	if !ok {
		t.Fatal("no grant on a channel that goes idle")
	}
	if start < busyUntil {
		t.Fatalf("granted %g while channel busy until %g", start, busyUntil)
	}
	if start > busyUntil+10*SenseIntervalS {
		t.Fatalf("p-persistent grant at %g, want within ten slots of idle at %g", start, busyUntil)
	}
}

// TestContenderPPersistentDeterministicDraws mirrors the classic
// determinism check: same seed, same busy history, same grants.
func TestContenderPPersistentDeterministicDraws(t *testing.T) {
	busy := func(tS float64) bool { return tS < 1.0 }
	run := func() []float64 {
		c := NewContender(Config{CarrierSense: true, Persist: 0.4, Seed: 5})
		var grants []float64
		ready := 0.0
		for i := 0; i < 4; i++ {
			s, ok := c.Acquire(busy, ready, 0.6, 0)
			if !ok {
				t.Fatal("unexpected deadline")
			}
			grants = append(grants, s)
			ready = s + 0.6
		}
		return grants
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grant %d diverged: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestContenderPPersistentDeadlineGivesUp: the deadline contract is
// shared with the classic discipline.
func TestContenderPPersistentDeadlineGivesUp(t *testing.T) {
	c := NewContender(Config{CarrierSense: true, Persist: 0.8, Seed: 7})
	until, ok := c.Acquire(func(float64) bool { return true }, 1.0, 0.6, 0.5)
	if ok {
		t.Fatal("granted access on a permanently busy channel")
	}
	if until <= 1.5 {
		t.Fatalf("gave up at %g, want strictly past ready+deadline (1.5)", until)
	}
}

// TestContenderGiveUpReportsBusyUntil pins the failure contract the
// public ChannelBusyError rides on: when Acquire gives up, the
// returned time is the first poll instant past readyS + maxWaitS —
// the channel was busy (or backoff pending) until then.
func TestContenderGiveUpReportsBusyUntil(t *testing.T) {
	c := NewContender(Config{CarrierSense: true, PacketDurS: 0.6, Seed: 7})
	until, ok := c.Acquire(func(float64) bool { return true }, 2.0, 0.6, 0.5)
	if ok {
		t.Fatal("granted access on a permanently busy channel")
	}
	if until <= 2.5 {
		t.Fatalf("gave up at %g, want strictly past ready+deadline (2.5)", until)
	}
	if until > 2.5+2*SenseIntervalS {
		t.Fatalf("gave up at %g, want within two sense intervals of the deadline", until)
	}
}

// TestContenderLazySeedKeepsStream pins the lazily seeded source: a
// contender built early whose first draw comes after other contenders
// (one on the same seed) have drawn yields the grants of one built and
// drawn at once, and those grants follow math/rand seeded with
// cfg.Seed exactly.
func TestContenderLazySeedKeepsStream(t *testing.T) {
	busy := func(tS float64) bool { return tS < 2.0 }
	grants := func(c *Contender) []float64 {
		var out []float64
		ready := 0.0
		for i := 0; i < 6; i++ {
			s, ok := c.Acquire(busy, ready, 0.6, 0)
			if !ok {
				t.Fatal("unexpected deadline")
			}
			out = append(out, s)
			ready = s + 0.3
		}
		return out
	}
	for _, persist := range []float64{0, 0.4} {
		cfg := Config{CarrierSense: true, PacketDurS: 0.6, Persist: persist, Seed: 9}
		late := NewContender(cfg)
		for _, seed := range []int64{9, 10, 11} {
			other := cfg
			other.Seed = seed
			grants(NewContender(other))
		}
		want := grants(NewContender(cfg))
		got := grants(late)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("persist %g: late first draw %v, want %v", persist, got, want)
		}
	}

	// On an idle channel the p-persistent grant is the first slot whose
	// draw passes, so it reads the source's stream directly.
	const p, seed = 0.3, 21
	rng := rand.New(rand.NewSource(seed))
	k := 0
	for rng.Float64() > p {
		k++
	}
	c := NewContender(Config{CarrierSense: true, Persist: p, Seed: seed})
	start, ok := c.Acquire(func(float64) bool { return false }, 0, 0.6, 0)
	if want := float64(k) * SenseIntervalS; !ok || math.Abs(start-want) > 1e-9 {
		t.Fatalf("idle p-persistent grant (%g, %v), want (%g, true) from the seeded stream", start, ok, want)
	}
}
