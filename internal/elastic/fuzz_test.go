package elastic

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/backend/dist"
)

// Fuzz targets for the elastic frame bodies (the frame layer itself is
// fuzzed in the dist package). Seed corpora live in testdata/fuzz/<target>/;
// run one target with, e.g.,
//
//	go test -run '^$' -fuzz '^FuzzParseEnq$' -fuzztime 10s ./internal/elastic/
//
// Every target checks that hostile bytes cannot panic a parser, and that
// whatever a parser accepts re-encodes to the bytes it was parsed from.

func FuzzParseEnq(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rank, src, msg, err := parseEnq(b)
		if err != nil {
			return
		}
		if !bytes.Equal(msg, b[4:]) {
			t.Fatal("enq's msg is not the body after the rank prefix")
		}
		msrc, tag, metered, payload, err := dist.ParseMsgHeader(msg)
		if err != nil || msrc != src {
			t.Fatalf("enq's msg parses to src %d (%v), want %d", msrc, err, src)
		}
		m := msgRec{src: src, tag: tag, metered: metered, payload: payload}
		if !bytes.Equal(appendEnq(nil, rank, m), b) {
			t.Fatalf("enq (%d, %d, %d, %d) does not re-encode to its body", rank, src, tag, metered)
		}
		// The coordinator writes each enq together with its pop.
		br := bufio.NewReader(bytes.NewReader(appendEnqPop(nil, rank, m)))
		if op, body, err := dist.ReadFrame(br); err != nil || op != opEnq || !bytes.Equal(body, b) {
			t.Fatalf("enq frame reads back as op %d (%v), body equal %v", op, err, bytes.Equal(body, b))
		}
		op, body, err := dist.ReadFrame(br)
		if err != nil || op != opPop {
			t.Fatalf("pop frame reads back as op %d (%v)", op, err)
		}
		if prank, psrc, err := parsePop(body); err != nil || prank != rank || psrc != src || len(body) != 8 {
			t.Fatalf("pop (%d, %d) reads back as (%d, %d), %v", rank, src, prank, psrc, err)
		}
	})
}

func FuzzParsePop(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rank, src, err := parsePop(b)
		if err != nil {
			return
		}
		if !bytes.Equal(appendPop(nil, rank, src), b[:8]) {
			t.Fatalf("pop (%d, %d) does not re-encode to its body", rank, src)
		}
	})
}

func FuzzParseWelcome(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		id, heartbeat, err := parseWelcome(b)
		if err != nil {
			return
		}
		if !bytes.Equal(welcomeBody(id, heartbeat), b[:12]) {
			t.Fatalf("welcome (%d, %v) does not re-encode to its body", id, heartbeat)
		}
	})
}
