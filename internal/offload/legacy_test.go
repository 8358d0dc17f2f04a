package offload

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// readLegacyStream returns testdata/gob_stream.golden: a frame stream
// recorded from a pre-binary client, which spoke gob. The codec no longer
// speaks gob, so these bytes are hostile input that must be refused with
// a typed error.
func readLegacyStream(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/gob_stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("legacy stream file is not hex: %v", err)
	}
	return stream
}

// TestRecvRefusesLegacyGobStream: a legacy gob client's first frame
// fails with a typed *WireVersionError, without a panic, and poisons the
// receive side.
func TestRecvRefusesLegacyGobStream(t *testing.T) {
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(readLegacyStream(t)), io.Discard})
	_, err := c.Recv()
	var wve *WireVersionError
	if !errors.As(err, &wve) {
		t.Fatalf("err = %v, want *WireVersionError", err)
	}
	if wve.Version != 0 {
		t.Fatalf("WireVersionError.Version = %d, want 0 (no binary magic)", wve.Version)
	}
	if _, err := c.Recv(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("recv after refusal: err = %v, want a poisoned-connection error", err)
	}
}
