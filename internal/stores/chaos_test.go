package stores

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/remote"
	"gadget/internal/tracing"
)

// chaosOp is one step of the differential sequence.
type chaosOp struct {
	kind byte
	key  int
	val  string
}

func chaosOps(seed int64, n, keys int) []chaosOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]chaosOp, n)
	for i := range ops {
		ops[i] = chaosOp{
			kind: byte(rng.Intn(10)),
			key:  rng.Intn(keys),
			val:  fmt.Sprintf("c%d-%04d-%04x", seed, i, rng.Intn(1<<16)),
		}
	}
	return ops
}

func applyChaosOp(s kv.Store, o chaosOp) error {
	key := []byte(fmt.Sprintf("key-%03d", o.key))
	switch o.kind {
	case 0:
		return s.Delete(key)
	case 1, 2, 3:
		return s.Merge(key, []byte(o.val))
	case 4, 5, 6, 7:
		return s.Put(key, []byte(o.val))
	default:
		_, err := s.Get(key)
		if errors.Is(err, kv.ErrNotFound) {
			return nil
		}
		return err
	}
}

// Every engine and the remote client, wrapped in chaos + resilience,
// must converge to the memstore oracle: retries of injected transient
// faults never duplicate a merge and never drop an effect.
func TestChaosDifferentialAllEngines(t *testing.T) {
	seeds := []int64{11, 97}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			backing := memstore.New()
			srv, err := remote.Serve(backing, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { srv.Close(); backing.Close() }()

			// A second server whose *backing store* is fault-wrapped: its
			// injected errors cross the wire as transient statuses and the
			// client-side retry layer must absorb them.
			chaoticBacking := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{Seed: seed, ErrorRate: 0.05})
			chaoticSrv, err := remote.Serve(chaoticBacking, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { chaoticSrv.Close(); chaoticBacking.Close() }()

			const nOps, nKeys = 1200, 150
			ops := chaosOps(seed, nOps, nKeys)

			oracle := memstore.New()
			defer oracle.Close()

			mk := func(name string) Config {
				cfg := Config{
					Engine: name, Dir: t.TempDir(),
					MemtableBytes: 16 << 10, CacheBytes: 32 << 10,
					LogMemBytes: 8 << 20, IndexBuckets: 64,
					// Fault rates in the 1-10% band; retry budget sized so
					// op-level exhaustion is effectively impossible, breaker
					// disabled so the sequence is never refused.
					Chaos: &ChaosConfig{Seed: seed, ErrorRate: 0.05, LatencyRate: 0.02, LatencyUs: 10},
					Resilience: &ResilienceConfig{
						MaxRetries: 12, BackoffBaseUs: 1, BackoffMaxMs: 1,
						JitterSeed: seed, BreakerThreshold: -1,
					},
				}
				if name == "remote" {
					cfg.Addr = srv.Addr()
				}
				if name == "remote-chaotic-server" {
					// Faults are injected behind the server here, so the
					// client side carries only the retry middleware.
					cfg.Engine = "remote"
					cfg.Addr = chaoticSrv.Addr()
					cfg.Chaos = nil
				}
				return cfg
			}

			engines := map[string]kv.Store{}
			for _, name := range []string{"rocksdb", "lethe", "faster", "berkeleydb", "memstore", "remote", "remote-chaotic-server"} {
				s, err := Open(mk(name))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				engines[name] = s
			}

			for i, o := range ops {
				if err := applyChaosOp(oracle, o); err != nil {
					t.Fatalf("oracle: op %d: %v", i, err)
				}
				for name, s := range engines {
					if err := applyChaosOp(s, o); err != nil {
						t.Fatalf("%s: op %d: %v (retries should absorb injected faults)", name, i, err)
					}
				}
			}

			for k := 0; k < nKeys; k++ {
				key := []byte(fmt.Sprintf("key-%03d", k))
				want, wantErr := oracle.Get(key)
				for name, s := range engines {
					got, err := s.Get(key)
					if errors.Is(wantErr, kv.ErrNotFound) {
						if !errors.Is(err, kv.ErrNotFound) {
							t.Fatalf("%s: key %s should be absent, got %q (err %v)", name, key, got, err)
						}
						continue
					}
					if err != nil || string(got) != string(want) {
						t.Fatalf("%s: Get(%s) = %q, %v; want %q (dropped or duplicated effect)", name, key, got, err, want)
					}
				}
			}

			// Chaos must actually have fired, and resilience absorbed it.
			for name, s := range engines {
				rep, ok := s.(kv.ResilienceReporter)
				if !ok {
					t.Fatalf("%s: Open with Resilience did not yield a ResilienceReporter", name)
				}
				c := rep.ResilienceCounters()
				if c.Retries == 0 {
					t.Errorf("%s: no retries recorded at 5%% fault rate", name)
				}
				if c.Degraded != 0 {
					t.Errorf("%s: %d ops exhausted their retry budget", name, c.Degraded)
				}
			}
		})
	}
}

// Tracing must not change what the middleware does: the same seeded
// script through resilient(chaos(memstore)), once with no trace context
// and once with every op carrying a sampled one, ends in the same state
// with the same faults injected and the same retries spent (same chaos
// seed and JitterSeed, so both runs draw the same lottery).
func TestChaosDifferentialTraced(t *testing.T) {
	const seed, nOps, nKeys = 11, 1200, 150
	run := func(tracer *tracing.Tracer) ([]kv.Entry, kv.ChaosCounters, kv.ResilienceCounters) {
		s, err := Open(Config{
			Engine:     "memstore",
			Chaos:      &ChaosConfig{Seed: seed, ErrorRate: 0.05, LatencyRate: 0.02, LatencyUs: 10},
			Resilience: &ResilienceConfig{MaxRetries: 12, BackoffBaseUs: 1, BackoffMaxMs: 1, JitterSeed: seed, BreakerThreshold: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i, o := range chaosOps(seed, nOps, nKeys) {
			op := kv.TracedOp{Key: kv.StateKey{Group: uint64(o.key)}.Bytes(), Val: []byte(o.val)}
			switch o.kind {
			case 0:
				op.Op = kv.OpDelete
			case 1, 2, 3:
				op.Op = kv.OpMerge
			case 4, 5, 6, 7:
				op.Op = kv.OpPut
			default:
				op.Op = kv.OpGet
			}
			tc := tracer.Start(uint8(op.Op))
			_, err := kv.DoTraced(s, tc, op)
			tracer.Finish(tc)
			if err != nil && !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("op %d: %v (retries should absorb injected faults)", i, err)
			}
		}
		// Read below the middleware, so the comparison draws no lottery.
		chaos := s.(*kv.ResilientStore).Inner().(*kv.ChaosStore)
		state, err := kv.ScanAll(chaos.Inner())
		if err != nil {
			t.Fatal(err)
		}
		return state, chaos.Counters(), s.(kv.ResilienceReporter).ResilienceCounters()
	}
	tracer := tracing.New(tracing.Options{SampleN: 1})
	state, chaos, res := run(nil)
	tracedState, tracedChaos, tracedRes := run(tracer)
	if started, finished := tracer.Stats(); started != nOps || finished != nOps {
		t.Fatalf("traced run started %d and finished %d traces, want %d", started, finished, nOps)
	}
	if chaos.InjectedErrors == 0 || res.Retries == 0 {
		t.Fatalf("nothing to absorb: %+v %+v", chaos, res)
	}
	if tracedChaos != chaos {
		t.Fatalf("chaos counters: traced %+v, untraced %+v", tracedChaos, chaos)
	}
	if tracedRes != res {
		t.Fatalf("resilience counters: traced %+v, untraced %+v", tracedRes, res)
	}
	if !reflect.DeepEqual(tracedState, state) {
		t.Fatalf("final state differs: traced %d entries, untraced %d", len(tracedState), len(state))
	}
}

// An outage window trips the circuit breaker; ops refused during the
// window fail transiently and are skipped on the oracle, and the states
// still converge afterward — the breaker loses no applied effects.
func TestChaosOutageBreakerDifferential(t *testing.T) {
	const nOps, nKeys = 800, 80
	ops := chaosOps(23, nOps, nKeys)

	oracle := memstore.New()
	defer oracle.Close()

	s, err := Open(Config{
		Engine: "rocksdb", Dir: t.TempDir(),
		MemtableBytes: 16 << 10, CacheBytes: 32 << 10,
		Chaos: &ChaosConfig{Seed: 23, ErrorRate: 1e-9, OutageAfterOps: 200, OutageOps: 300},
		Resilience: &ResilienceConfig{
			MaxRetries: 2, BackoffBaseUs: 1, BackoffMaxMs: 1,
			JitterSeed: 23, BreakerThreshold: 4, BreakerCooldownMs: 10_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	failed := 0
	for i, o := range ops {
		err := applyChaosOp(s, o)
		if err != nil {
			if !kv.Transient(err) {
				t.Fatalf("op %d: outage produced a fatal error: %v", i, err)
			}
			failed++
			continue // chaos fails before applying: skip the oracle too
		}
		if err := applyChaosOp(oracle, o); err != nil {
			t.Fatalf("oracle: op %d: %v", i, err)
		}
	}
	if failed == 0 {
		t.Fatal("outage window injected no failures")
	}

	c := s.(kv.ResilienceReporter).ResilienceCounters()
	if c.BreakerTrips == 0 {
		t.Fatal("outage did not trip the breaker")
	}
	if c.FastFails == 0 {
		t.Fatal("open breaker did not fast-fail any ops")
	}

	// Verify below the middleware: the breaker is still open (its
	// cooldown outlives the test on purpose), so read the raw engine.
	raw := s.(*kv.ResilientStore).Inner().(*kv.ChaosStore).Inner()
	for k := 0; k < nKeys; k++ {
		key := []byte(fmt.Sprintf("key-%03d", k))
		want, wantErr := oracle.Get(key)
		got, err := raw.Get(key)
		if errors.Is(wantErr, kv.ErrNotFound) {
			if !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("key %s should be absent, got %q (err %v)", key, got, err)
			}
			continue
		}
		if err != nil || string(got) != string(want) {
			t.Fatalf("Get(%s) = %q, %v; want %q", key, got, err, want)
		}
	}
}

// Open validates chaos and resilience configuration.
func TestOpenValidatesMiddlewareConfig(t *testing.T) {
	if _, err := Open(Config{Engine: "memstore", Chaos: &ChaosConfig{ErrorRate: 1.5}}); err == nil {
		t.Fatal("error_rate > 1 accepted")
	}
	if _, err := Open(Config{Engine: "memstore", Resilience: &ResilienceConfig{MaxRetries: -2}}); err == nil {
		t.Fatal("max_retries < -1 accepted")
	}
}
