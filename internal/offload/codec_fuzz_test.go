package offload

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"rattrap/internal/host"
)

// FuzzFrameCodec throws arbitrary bytes at Conn.Recv. The codec must
// never panic, never allocate beyond the frame limit, and — when the
// input happens to be a valid frame — survive a re-encode round trip.
// Run with `go test -fuzz FuzzFrameCodec ./internal/offload/`
// (ci.sh runs a short smoke pass).
func FuzzFrameCodec(f *testing.F) {
	// Seed corpus: one valid encoding of each frame kind, each frame of a
	// recorded legacy gob stream, plus broken prefixes and garbage.
	valid := []Frame{
		{Kind: KindHello, Hello: &Hello{DeviceID: "phone-1"}},
		{Kind: KindExec, Exec: &ExecRequest{
			DeviceID: "phone-1", AID: "abc", App: "ChessGame", Method: "bestMove",
			Seq: 3, Params: []byte{1, 2, 3}, ParamBytes: 122 * host.KB,
		}},
		{Kind: KindNeedCode},
		{Kind: KindCode, Code: &CodePush{AID: "abc", App: "ChessGame", Size: 2300 * host.KB}},
		{Kind: KindResult, Result: &Result{Output: "ok", ResultBytes: 7600, Code: CodeOverloaded, RetryAfterMs: 100}},
	}
	for _, fr := range valid {
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for legacy := readLegacyStream(f); len(legacy) > 0; {
		size, n := binary.Uvarint(legacy)
		if n <= 0 || uint64(len(legacy)-n) < size {
			f.Fatal("recorded gob stream is not whole frames")
		}
		f.Add(legacy[:n+int(size)])
		legacy = legacy[n+int(size):]
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge uvarint
	f.Add([]byte{0x05, 0x01, 0x02})                                           // truncated payload
	f.Add([]byte{0x00})                                                       // zero-length frame
	f.Add([]byte{0x04, binMagic, BinaryWireVersion, binKindHello, 0x00})      // short binary hello
	f.Add([]byte{0x02, binMagic, 0x07})                                       // unknown binary version
	f.Add([]byte{0x03, binMagic, BinaryWireVersion, 0x63})                    // unknown binary kind

	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 16
		c := NewConnLimit(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard}, limit)
		fr, err := c.Recv()
		if err != nil {
			return // malformed input must error, not panic
		}
		if err := fr.Validate(); err != nil {
			t.Fatalf("Recv returned an invalid frame: %v", err)
		}
		// A binary frame's payload aliases the connection's scratch; copy
		// it out so the replays below can't invalidate it.
		fr = cloneFrame(fr)

		// Round trip: whatever decoded must re-encode and decode to a
		// frame that compares equal.
		var buf bytes.Buffer
		if err := NewConnLimit(&buf, limit).Send(fr); err != nil {
			t.Fatalf("re-encoding a decoded frame failed: %v", err)
		}
		back, err := NewConnLimit(struct {
			io.Reader
			io.Writer
		}{&buf, io.Discard}, limit).Recv()
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if !framesEqual(fr, back) {
			t.Fatalf("round trip changed the frame:\nin  %+v\nout %+v", fr, back)
		}

		// Pooled-path exercise: run the same frame through one persistent
		// connection several times. Each Recv returns its scratch buffer to
		// the pool and each Send reuses the encoder scratch, so a frame
		// corrupted by buffer recycling (a payload aliasing a recycled
		// buffer, stale bytes from a larger previous frame) would surface
		// as a decode error or a kind flip on the later iterations.
		var stream bytes.Buffer
		pc := NewConnLimit(&stream, limit)
		const rounds = 3
		for i := 0; i < rounds; i++ {
			if err := pc.Send(fr); err != nil {
				t.Fatalf("pooled send %d failed: %v", i, err)
			}
		}
		for i := 0; i < rounds; i++ {
			got, err := pc.Recv()
			if err != nil {
				t.Fatalf("pooled recv %d failed: %v", i, err)
			}
			if got.Kind != fr.Kind {
				t.Fatalf("pooled recv %d changed kind: %s -> %s", i, fr.Kind, got.Kind)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("pooled recv %d returned an invalid frame: %v", i, err)
			}
			if fr.Kind == KindExec && !bytes.Equal(got.Exec.Params, fr.Exec.Params) {
				t.Fatalf("pooled recv %d corrupted params: %x -> %x", i, fr.Exec.Params, got.Exec.Params)
			}
		}
	})
}
