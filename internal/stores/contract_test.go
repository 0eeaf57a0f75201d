package stores

import (
	"errors"
	"strings"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/remote"
	"gadget/internal/shard"
)

// wrapperCase is one kv.Base embedder under an always-failing chaos plan.
type wrapperCase struct {
	name  string
	store kv.Store
	// inner is the wrapped store whose Caps the wrapper must report; nil
	// for the network clients, which wrap a connection.
	inner kv.Store
	// chaos are the always-failing stores the calls reach, and fanout the
	// admissions one scan or snapshot charges across them.
	chaos  []*kv.ChaosStore
	fanout int64
}

var failAll = kv.ChaosPlan{Seed: 1, ErrorRate: 1}

// wrapperCases builds ChaosStore and ResilientStore over every local
// engine, a PipelinedClient and a 2-shard Client, each reaching stores
// that fail every operation.
func wrapperCases(t *testing.T) []wrapperCase {
	t.Helper()
	var cases []wrapperCase
	for _, name := range Engines() {
		if name == "remote" {
			continue
		}
		for _, wrapper := range []string{"chaos", "resilient"} {
			eng, err := Open(Config{
				Engine: name, Dir: t.TempDir(),
				MemtableBytes: 16 << 10, CacheBytes: 32 << 10,
				LogMemBytes: 8 << 20, IndexBuckets: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			chaos := kv.NewChaosStore(eng, failAll)
			c := wrapperCase{name: wrapper + "/" + name, store: chaos, inner: eng, chaos: []*kv.ChaosStore{chaos}, fanout: 1}
			if wrapper == "resilient" {
				c.inner = chaos
				if c.store, err = kv.NewResilientStore(chaos, kv.ResilienceOptions{MaxRetries: -1, BreakerThreshold: -1}); err != nil {
					t.Fatal(err)
				}
			}
			t.Cleanup(func() { c.store.Close() })
			cases = append(cases, c)
		}
	}

	serve := func(n int) ([]*kv.ChaosStore, []string) {
		chaos := make([]*kv.ChaosStore, n)
		backs := make([]kv.Store, n)
		for i := range chaos {
			chaos[i] = kv.NewChaosStore(memstore.New(), failAll)
			backs[i] = chaos[i]
		}
		srv, err := shard.Serve(backs, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			for _, b := range backs {
				b.Close()
			}
		})
		return chaos, srv.Addrs()
	}

	chaos, addrs := serve(1)
	pc, err := remote.DialPipeline(addrs[0], remote.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	cases = append(cases, wrapperCase{name: "pipelined", store: pc, chaos: chaos, fanout: 1})

	chaos, addrs = serve(2)
	sc, err := shard.Dial(addrs, remote.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return append(cases, wrapperCase{name: "shard", store: sc, chaos: chaos, fanout: 2})
}

// isInjected reports whether err is an injected chaos fault: the
// sentinel itself locally, its transient message over the wire.
func isInjected(err error) bool {
	return errors.Is(err, kv.ErrInjectedFault) ||
		(kv.Transient(err) && strings.Contains(err.Error(), kv.ErrInjectedFault.Error()))
}

// TestWrapperContract runs one table over every kv.Base embedder: each
// implements the optional interfaces, a wrapper reports its inner
// store's Caps, and every plain call and Snapshot goes through the
// wrapper's own body — an always-failing chaos plan fails each one and
// charges its lottery, so no shim can skip the body.
func TestWrapperContract(t *testing.T) {
	key := kv.StateKey{Group: 1}.Bytes()
	calls := []struct {
		name string
		scan bool
		call func(kv.Store) error
	}{
		{"Get", false, func(s kv.Store) error { _, err := s.Get(key); return err }},
		{"Put", false, func(s kv.Store) error { return s.Put(key, []byte("v")) }},
		{"Merge", false, func(s kv.Store) error { return s.Merge(key, []byte("v")) }},
		{"Delete", false, func(s kv.Store) error { return s.Delete(key) }},
		{"ScanRange", true, func(s kv.Store) error {
			_, err := s.(kv.RangeScanner).ScanRange(kv.StateKey{}, kv.MaxStateKey)
			return err
		}},
		{"Snapshot", true, func(s kv.Store) error {
			snap, err := s.(kv.Snapshotter).Snapshot()
			if err == nil {
				snap.Close()
			}
			return err
		}},
	}
	for _, c := range wrapperCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s := c.store
			if _, ok := s.(kv.Capabler); !ok {
				t.Error("not a kv.Capabler")
			}
			if _, ok := s.(kv.Introspector); !ok {
				t.Error("not a kv.Introspector")
			}
			if _, ok := s.(kv.Snapshotter); !ok {
				t.Error("not a kv.Snapshotter")
			}
			if _, ok := s.(kv.RangeScanner); !ok {
				t.Error("not a kv.RangeScanner")
			}
			if _, ok := s.(kv.Traceable); !ok {
				t.Error("not a kv.Traceable")
			}
			if t.Failed() {
				t.FailNow()
			}
			if c.inner != nil && kv.CapsOf(s) != kv.CapsOf(c.inner) {
				t.Errorf("Caps = %+v, inner store's = %+v", kv.CapsOf(s), kv.CapsOf(c.inner))
			}
			ops := func() (n int64) {
				for _, ch := range c.chaos {
					n += ch.Metrics()["chaos.ops"]
				}
				return n
			}
			for _, call := range calls {
				before := ops()
				if err := call.call(s); !isInjected(err) {
					t.Errorf("%s: err = %v, want the injected fault", call.name, err)
				}
				want := int64(1)
				if call.scan {
					want = c.fanout
				}
				if got := ops() - before; got != want {
					t.Errorf("%s: chaos.ops moved by %d, want %d", call.name, got, want)
				}
			}
		})
	}
}
