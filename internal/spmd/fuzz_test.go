package spmd

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodePayload fuzzes the payload decoder every dist and elastic
// receive runs. Seed corpus: testdata/fuzz/FuzzDecodePayload/; run with
//
//	go test -run '^$' -fuzz '^FuzzDecodePayload$' -fuzztime 10s ./internal/spmd/
//
// Hostile bytes must decode to an error, never a panic. Whatever value
// they do decode to must survive the round trip Decode(Append(v)) == v:
// same type, same encoding bit for bit (so NaNs and the nil/empty slice
// distinction count), the whole encoding consumed, and the same BytesOf
// price, which is what the meters charge.
func FuzzDecodePayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := DecodePayload(b)
		if err != nil {
			return
		}
		if n < 1 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		enc, err := AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		got, m, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
		if m != len(enc) {
			t.Fatalf("decode of a %d-byte %T encoding consumed %d bytes", len(enc), v, m)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(v) {
			t.Fatalf("round trip turned %T into %T", v, got)
		}
		again, err := AppendPayload(nil, got)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip of %T changed its encoding (%v)", v, err)
		}
		if BytesOf(got) != BytesOf(v) {
			t.Fatalf("round trip of %T changed its price: %d != %d", v, BytesOf(got), BytesOf(v))
		}
	})
}
