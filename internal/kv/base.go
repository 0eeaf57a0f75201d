package kv

// Base is the embeddable half of every store that serves its operations
// through one DoTraced body: chaos, resilience and the network clients.
// It supplies the plain Store calls, each as one call into the embedding
// store's DoTraced with a nil trace context, and forwards Caps, Close and
// Inner to the wrapped store. It forwards nothing that reads or writes
// data — Snapshot and Metrics stay each store's own — so a promoted
// method can never bypass the embedding store's body. A store that
// wraps a connection rather than a store passes a nil inner and defines
// its own Caps and Close.
type Base struct {
	self  Traceable
	inner Store
}

// NewBase binds a Base to self, the embedding store, and inner, the
// store it wraps (nil when it wraps none).
func NewBase(self Traceable, inner Store) Base { return Base{self: self, inner: inner} }

// Get implements Store.
func (b *Base) Get(key []byte) ([]byte, error) {
	res, err := b.self.DoTraced(nil, TracedOp{Op: OpGet, Key: key})
	return res.Val, err
}

// Put implements Store.
func (b *Base) Put(key, value []byte) error {
	_, err := b.self.DoTraced(nil, TracedOp{Op: OpPut, Key: key, Val: value})
	return err
}

// Merge implements Store.
func (b *Base) Merge(key, operand []byte) error {
	_, err := b.self.DoTraced(nil, TracedOp{Op: OpMerge, Key: key, Val: operand})
	return err
}

// Delete implements Store.
func (b *Base) Delete(key []byte) error {
	_, err := b.self.DoTraced(nil, TracedOp{Op: OpDelete, Key: key})
	return err
}

// ScanRange implements RangeScanner.
func (b *Base) ScanRange(lo, hi StateKey) ([]Entry, error) {
	res, err := b.self.DoTraced(nil, TracedOp{Op: OpScan, Lo: lo, Hi: hi})
	return res.Entries, err
}

// Caps delegates to the wrapped store.
func (b *Base) Caps() Capabilities { return CapsOf(b.inner) }

// Close closes the wrapped store.
func (b *Base) Close() error { return b.inner.Close() }

// Inner returns the wrapped store.
func (b *Base) Inner() Store { return b.inner }
