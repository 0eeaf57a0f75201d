package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"gadget/internal/kv"
)

// validTraceBytes encodes a small trace through the production Writer.
func validTraceBytes(t testing.TB) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	accesses := []kv.Access{
		{Op: kv.OpPut, Key: kv.StateKey{Group: 1, Sub: 0}, Size: 8, Time: 100},
		{Op: kv.OpGet, Key: kv.StateKey{Group: 1, Sub: 0}, Size: 0, Time: 150},
		{Op: kv.OpMerge, Key: kv.StateKey{Group: 7, Sub: 3}, Size: 64, Time: 151},
		{Op: kv.OpFGet, Key: kv.StateKey{Group: 7, Sub: 3}, Size: 0, Time: 151},
		{Op: kv.OpDelete, Key: kv.StateKey{Group: 0, Sub: 9}, Size: 0, Time: 90},
	}
	for _, a := range accesses {
		if err := w.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTrace feeds arbitrary bytes to the binary trace decoder. The
// decoder must return an error (or clean EOF) on malformed input, never
// panic or loop forever.
func FuzzReadTrace(f *testing.F) {
	valid := validTraceBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-record
	f.Add(valid[:8])            // header only
	f.Add(valid[:3])            // torn header
	f.Add([]byte{})
	f.Add([]byte("GDTR garbage that is not a trace"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1<<16; i++ {
			a, err := r.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return // malformed input must surface as an error
			}
			if int(a.Op) >= kv.NumOps {
				t.Fatalf("decoder produced invalid op %d", a.Op)
			}
		}
		t.Fatal("decoder did not terminate on bounded input")
	})
}
