package elastic

import (
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
		if !bytes.Equal(enqBody(rank, src, tag, metered, payload), b) {
			t.Fatalf("enq (%d, %d, %d, %d) does not re-encode to its body", rank, src, tag, metered)
		}
	})
}

func FuzzParsePop(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rank, src, err := parsePop(b)
		if err != nil {
			return
		}
		if !bytes.Equal(popBody(rank, src), b[:8]) {
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
