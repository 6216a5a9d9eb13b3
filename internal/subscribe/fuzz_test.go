package subscribe

import (
	"net"
	"reflect"
	"testing"

	"repro/internal/netproto"
	"repro/internal/stream"
)

// handshake sends body as a MsgSubscribe over an in-memory connection
// served by s.HandleConn and returns the type of the server's answer: 0
// when it answered nothing (a body that does not decode ends the session
// without a reply). It then hangs up and waits for HandleConn to return.
func handshake(t *testing.T, s *Server, body []byte) netproto.MsgType {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		s.HandleConn(server)
	}()
	pc := netproto.NewConn(client)
	if err := pc.SendRaw(netproto.MsgSubscribe, body); err != nil {
		t.Fatal(err)
	}
	typ, _, _ := pc.RecvRaw()
	client.Close()
	<-done
	return typ
}

// FuzzSubscribeRequest feeds arbitrary MsgSubscribe bodies through what
// HandleConn runs on a remote peer's request: decode, attach, acknowledge.
// Whatever the bytes, nothing may panic, and an accepted request must be one
// attach can honour: a known mode and policy and a send queue no deeper
// than MaxQueueCap. The seed corpus (testdata/fuzz) holds a valid request,
// queue capacities of 1<<30 and 1<<62 and an unknown mode.
func FuzzSubscribeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		s := NewServer()
		defer s.Close()
		if handshake(t, s, body) != netproto.MsgSubscribeOK {
			return
		}
		var req SubscribeRequest
		if err := netproto.Decode(body, &req); err != nil {
			t.Fatalf("accepted a request that does not decode: %v", err)
		}
		if req.QueueCap > MaxQueueCap || req.Mode > TargetDefined || req.Policy > Disconnect {
			t.Fatalf("accepted %+v", req)
		}
	})
}

// FuzzDecodeUpdate feeds arbitrary MsgNotify bodies through DecodeUpdate,
// which Client.Recv and the dial-out Collect run on a peer's bytes. Nothing
// may panic, and an accepted body must describe an update that survives
// re-encoding: encoded again and decoded, it is the same update. The seed
// corpus (testdata/fuzz) holds encoded updates, a truncation and a string
// length of 2^64-1.
func FuzzDecodeUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		u, err := DecodeUpdate(body)
		if err != nil {
			return
		}
		again := appendHeader(nil, u.Window, u.Key())
		again = appendResult(again, &stream.Result{Schema: u.Schema, Tuples: u.Tuples})
		v, err := DecodeUpdate(again)
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", u, err)
		}
		if !reflect.DeepEqual(u, v) {
			t.Fatalf("re-encoding changed the update: %+v, then %+v", u, v)
		}
	})
}
