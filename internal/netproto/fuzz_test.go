package netproto

import (
	"bytes"
	"io"
	"testing"
)

// readWriter reads from r and writes into w, for a Conn that reads one
// buffer and writes another.
type readWriter struct {
	io.Reader
	io.Writer
}

// FuzzRecvRaw reads arbitrary bytes as a stream of frames, as every data-plane
// server, subscriber client and collector does with its peer's bytes. Nothing
// may panic, and every frame read must be exactly the bytes it consumed:
// sent again with SendRaw, it reproduces them (so each read consumes at
// least a header and the stream ends on an error). The seed corpus (testdata/fuzz) holds a hello, an empty body, two
// frames back to back, a remote error, a truncated body, a zero length and a
// header claiming the largest frame allowed.
func FuzzRecvRaw(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var out bytes.Buffer
		c := NewConn(readWriter{r, &out})
		for frames := 0; ; frames++ {
			start := len(data) - r.Len()
			typ, body, err := c.RecvRaw()
			if err != nil {
				return
			}
			out.Reset()
			if err := c.SendRaw(typ, body); err != nil {
				t.Fatal(err)
			}
			if end := len(data) - r.Len(); !bytes.Equal(out.Bytes(), data[start:end]) {
				t.Fatalf("frame %d read from %x re-sends as %x", frames, data[start:end], out.Bytes())
			}
		}
	})
}
