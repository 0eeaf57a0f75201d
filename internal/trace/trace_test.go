package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"gadget/internal/kv"
)

func randomTrace(n int, seed int64) []kv.Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]kv.Access, n)
	t := int64(0)
	for i := range out {
		t += rng.Int63n(100)
		out[i] = kv.Access{
			Op:   kv.Op(rng.Intn(kv.NumOps)),
			Key:  kv.StateKey{Group: uint64(rng.Intn(1000)), Sub: uint64(rng.Int63n(1 << 40))},
			Size: uint32(rng.Intn(4096)),
			Time: t,
		}
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	want := randomTrace(10000, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, a := range want {
		if err := w.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 10000 {
		t.Fatalf("count = %d", w.Count())
	}
	// Compactness: well under the naive 29 bytes/record.
	if perRec := float64(buf.Len()) / 10000; perRec > 16 {
		t.Fatalf("encoding too fat: %.1f bytes/record", perRec)
	}
	r := NewReader(&buf)
	for i, wantA := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wantA {
			t.Fatalf("record %d = %+v, want %+v", i, got, wantA)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	want := randomTrace(5000, 2)
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.trace")
	if err := WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %d, %v", len(got), err)
	}
	// Entirely empty file (no header) also reads as empty.
	empty := filepath.Join(t.TempDir(), "zero.trace")
	os.WriteFile(empty, nil, 0o644)
	got, err = ReadFile(empty)
	if err != nil || len(got) != 0 {
		t.Fatalf("zero file: %d, %v", len(got), err)
	}
}

func TestCorruptHeader(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("garbage!")))
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: 1, Sub: 2}, Size: 3, Time: 4})
	w.Flush()
	data := buf.Bytes()
	r := NewReader(bytes.NewReader(data[:len(data)-1]))
	if _, err := r.Next(); err == nil {
		// First record may still decode if truncation hit padding; then
		// the next read must fail or EOF.
		if _, err2 := r.Next(); err2 == nil {
			t.Fatal("truncated trace decoded fully")
		}
	}
}

func TestInvalidOpRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(kv.Access{Op: kv.OpGet})
	w.Flush()
	data := buf.Bytes()
	data[8] = 0xEE // clobber the op byte of the first record
	r := NewReader(bytes.NewReader(data))
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(ops []uint8, groups []uint64, times []int64) bool {
		n := len(ops)
		if len(groups) < n {
			n = len(groups)
		}
		if len(times) < n {
			n = len(times)
		}
		accesses := make([]kv.Access, n)
		for i := 0; i < n; i++ {
			accesses[i] = kv.Access{
				Op:   kv.Op(ops[i] % uint8(kv.NumOps)),
				Key:  kv.StateKey{Group: groups[i], Sub: groups[i] >> 3},
				Size: uint32(groups[i] & 0xFFFF),
				Time: times[i],
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, a := range accesses {
			if w.Append(a) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, want := range accesses {
			got, err := r.Next()
			if err != nil || got != want {
				return false
			}
		}
		_, err := r.Next()
		return errors.Is(err, io.EOF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
