package dist

import (
	"bufio"
	"bytes"
	"testing"
)

// Fuzz targets for the frame layer both wire backends share. Seed corpora
// live in testdata/fuzz/<target>/; run one target with, e.g.,
//
//	go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 10s ./internal/backend/dist/
//
// Every target checks that hostile bytes cannot panic a parser, and that
// whatever a parser accepts re-encodes to the same fields.

// allocBound is the most memory a frame read may commit for input bytes
// that actually arrived: the claimed length alone must never size a
// buffer.
func allocBound(input int) int { return 4*input + 2*readStep }

func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		brInto := bufio.NewReader(bytes.NewReader(data))
		var scratch []byte
		for off := 0; ; {
			op, body, err := ReadFrame(br)
			opInto, bodyInto, errInto := ReadFrameInto(brInto, &scratch)
			if (err == nil) != (errInto == nil) {
				t.Fatalf("ReadFrame err %v, ReadFrameInto err %v", err, errInto)
			}
			if err != nil {
				return
			}
			if op != opInto || !bytes.Equal(body, bodyInto) {
				t.Fatalf("ReadFrame and ReadFrameInto disagree: op %d/%d, %d/%d body bytes", op, opInto, len(body), len(bodyInto))
			}
			if c := max(cap(body), cap(scratch)); c > allocBound(len(data)) {
				t.Fatalf("%d input bytes grew a %d-byte body buffer", len(data), c)
			}
			frame := AppendFrame(nil, op, body)
			if !bytes.Equal(frame, data[off:off+len(frame)]) {
				t.Fatalf("frame at offset %d does not re-encode to its input bytes", off)
			}
			off += len(frame)
		}
	})
}

func FuzzForEachFrame(f *testing.F) {
	type frame struct {
		op   byte
		body []byte
	}
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		var subs []frame
		err := forEachFrame(op, body, func(op byte, b []byte) error {
			subs = append(subs, frame{op, bytes.Clone(b)})
			return nil
		})
		if err != nil {
			return
		}
		if op != opBatch {
			if len(subs) != 1 || subs[0].op != op || !bytes.Equal(subs[0].body, body) {
				t.Fatalf("plain frame op %d expanded to %d frames", op, len(subs))
			}
			return
		}
		// Re-coalescing the expanded frames must reproduce them.
		var sink bytes.Buffer
		w := NewWriter(&sink)
		for _, s := range subs {
			if s.op == opBatch {
				t.Fatal("batch container expanded to a nested batch")
			}
			if err := w.Write(s.op, s.body); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(subs) > 1 && 5+len(body) < writerFlushBytes {
			if want := AppendFrame(nil, opBatch, body); !bytes.Equal(sink.Bytes(), want) {
				t.Fatal("re-coalesced batch differs from the container")
			}
		}
		br := bufio.NewReader(&sink)
		var again []frame
		for {
			op, b, err := ReadFrame(br)
			if err != nil {
				break
			}
			if err := forEachFrame(op, b, func(op byte, b []byte) error {
				again = append(again, frame{op, b})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(again) != len(subs) {
			t.Fatalf("%d frames re-coalesced, %d read back", len(subs), len(again))
		}
		for i := range subs {
			if again[i].op != subs[i].op || !bytes.Equal(again[i].body, subs[i].body) {
				t.Fatalf("frame %d changed in the round trip", i)
			}
		}
	})
}

func FuzzParseHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		token, pid, err := ParseHello(b)
		if err != nil {
			return
		}
		token2, pid2, err := ParseHello(HelloBody(token, pid))
		if err != nil || token2 != token || pid2 != pid {
			t.Fatalf("hello (%q, %d) round-tripped to (%q, %d), %v", token, pid, token2, pid2, err)
		}
	})
}

func FuzzParseAssign(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rank, n, err := parseAssign(b)
		if err != nil {
			return
		}
		if rank < 0 || rank >= n {
			t.Fatalf("accepted rank %d outside world of %d", rank, n)
		}
		// Whatever world size the body claims, accepting it allocates
		// nothing.
		if allocs := testing.AllocsPerRun(1, func() { parseAssign(b) }); allocs != 0 { //nolint:errcheck
			t.Fatalf("parseAssign allocated %v times for a world of %d", allocs, n)
		}
		if !bytes.Equal(assignBody(rank, n), b[:8]) {
			t.Fatalf("assign (%d, %d) does not re-encode to its body", rank, n)
		}
	})
}

func FuzzParseMsgHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rank, tag, metered, payload, err := ParseMsgHeader(b)
		if err != nil {
			return
		}
		if re := append(AppendMsgHeader(nil, rank, tag, metered), payload...); !bytes.Equal(re, b) {
			t.Fatalf("header (%d, %d, %d) does not re-encode to its body", rank, tag, metered)
		}
	})
}
