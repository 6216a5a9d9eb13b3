// Package drivers implements Sonata's data-plane target driver (Section 5):
// a server half that owns a PISA switch and serves the control-plane
// protocol, and a client half that installs the switch program, loads
// dynamic filter tables and collects each window's register dumps, the two
// connected by any net.Conn (examples/distributed drives one). The packet
// fast path never crosses the control channel, as in the paper's
// architecture: the server walks frames through the installed program a view
// batch at a time — the walk the runtime's shards run — and hands each
// instance's mirror batches to a pisa.MirrorSink. An installed program is
// untrusted input: it must pass pisa.Program.CheckLowering and Validate, and
// the peer gets MsgError otherwise. The stream processor needs no driver: the
// runtime installs a plan's stream-side pipelines into its own engines.
package drivers

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"repro/internal/netproto"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/tuple"
)

// DataPlaneServer owns a switch and serves control operations for it.
type DataPlaneServer struct {
	cfg  pisa.Config
	sink pisa.MirrorSink

	// mu guards the switch and the view batch filling toward it, which
	// Process and the serving goroutine share.
	mu     sync.Mutex
	sw     *pisa.Switch
	parser *packet.Parser
	views  []pisa.View
	n      int    // views of the batch filled
	pkts   uint64 // frames processed this window
}

// NewDataPlaneServer prepares a server for a switch with the given
// constraints. The sink receives the monitoring-port batches of whatever
// program is installed, with the server's lock held (it must not call back
// into the server); nil discards them.
func NewDataPlaneServer(cfg pisa.Config, sink pisa.MirrorSink) *DataPlaneServer {
	// The switch parser extracts headers only; deep (DNS/payload) parsing
	// happens at the emitter and stream processor, as in the paper.
	return &DataPlaneServer{cfg: cfg, sink: sink, parser: packet.NewParser(packet.ParserOptions{}),
		views: make([]pisa.View, runtime.DefaultBatchSize)}
}

// Process feeds one frame to the installed program (local fast path): the
// frame is parsed into the filling view batch, and a full batch walks the
// switch. Frames are dropped until a program is installed. A view aliases its
// frame until the window closes, so the caller must not modify the frame
// before then.
func (s *DataPlaneServer) Process(frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sw == nil {
		return
	}
	s.views[s.n].Prepare(s.parser, frame)
	s.n++
	s.pkts++
	if s.n == len(s.views) {
		s.flush()
	}
}

// flush walks the filled part of the view batch through the switch. The
// caller holds s.mu.
func (s *DataPlaneServer) flush() {
	if s.n > 0 {
		s.sw.ProcessViews(s.views[:s.n])
		s.n = 0
	}
}

// Serve handles one control connection until it closes or fails. Protocol
// errors are reported to the peer where possible.
func (s *DataPlaneServer) Serve(conn io.ReadWriter) error {
	c := netproto.NewConn(conn)
	var hello netproto.Hello
	if err := c.Expect(netproto.MsgHello, &hello); err != nil {
		return err
	}
	if hello.Version != netproto.ProtocolVersion {
		c.SendError(fmt.Errorf("protocol version %d unsupported", hello.Version))
		return fmt.Errorf("drivers: client protocol version %d", hello.Version)
	}
	if err := c.Send(netproto.MsgCapabilities, &s.cfg); err != nil {
		return err
	}
	for {
		t, body, err := c.RecvRaw()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.handle(c, t, body); err != nil {
			return err
		}
	}
}

func (s *DataPlaneServer) handle(c *netproto.Conn, t netproto.MsgType, body []byte) error {
	switch t {
	case netproto.MsgInstall:
		var prog pisa.Program
		if err := netproto.Decode(body, &prog); err != nil {
			return c.SendError(fmt.Errorf("decoding program: %w", err))
		}
		if err := prog.CheckLowering(); err != nil {
			return c.SendError(err)
		}
		sw, err := pisa.NewSwitchShared(s.cfg, &prog, s.sink, nil)
		if err != nil {
			return c.SendError(err)
		}
		// The frames of the replaced program's open window go with it.
		s.mu.Lock()
		s.sw, s.n, s.pkts = sw, 0, 0
		s.mu.Unlock()
		return c.Send(netproto.MsgInstallOK, nil)

	case netproto.MsgUpdateTable:
		var upd netproto.UpdateTable
		if err := netproto.Decode(body, &upd); err != nil {
			return c.SendError(fmt.Errorf("decoding update: %w", err))
		}
		s.mu.Lock()
		if s.sw == nil {
			s.mu.Unlock()
			return c.SendError(fmt.Errorf("no program installed"))
		}
		// Frames that arrived before the update walk under the old rules.
		s.flush()
		n, err := s.sw.UpdateDynTable(upd.QID, upd.Level, upd.Side, upd.OpIdx, upd.Keys)
		s.mu.Unlock()
		if err != nil {
			return c.SendError(err)
		}
		return c.Send(netproto.MsgUpdateOK, &netproto.UpdateResult{Entries: n})

	case netproto.MsgEndWindow:
		s.mu.Lock()
		if s.sw == nil {
			s.mu.Unlock()
			return c.SendError(fmt.Errorf("no program installed"))
		}
		s.flush()
		dumps, stats := s.sw.EndWindow()
		stats.PacketsIn, s.pkts = s.pkts, 0
		// The dumps' keys alias the registers, which the next window's
		// frames overwrite: copy them before letting Process in again.
		dumps = slices.Clone(dumps)
		for i := range dumps {
			dumps[i].KeyVals = slices.Clone(dumps[i].KeyVals)
		}
		s.mu.Unlock()
		return c.Send(netproto.MsgWindowData, &netproto.WindowData{Dumps: dumps, Stats: stats})

	default:
		return c.SendError(fmt.Errorf("unexpected message %v", t))
	}
}

// ListenAndServe accepts control connections on l, serving each serially
// (the runtime opens exactly one).
func (s *DataPlaneServer) ListenAndServe(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		err = s.Serve(conn)
		conn.Close()
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
	}
}

// DataPlaneClient is the runtime's handle to a remote switch.
type DataPlaneClient struct {
	c   *netproto.Conn
	cfg pisa.Config
}

// DialDataPlane performs the hello handshake over conn and returns the
// client plus the switch's advertised constraints — the runtime "polls the
// data-plane driver ... to determine the values of the data-plane
// constraints" (Section 5).
func DialDataPlane(conn io.ReadWriter) (*DataPlaneClient, error) {
	c := netproto.NewConn(conn)
	if err := c.Send(netproto.MsgHello, &netproto.Hello{Version: netproto.ProtocolVersion}); err != nil {
		return nil, err
	}
	var cfg pisa.Config
	if err := c.Expect(netproto.MsgCapabilities, &cfg); err != nil {
		return nil, err
	}
	return &DataPlaneClient{c: c, cfg: cfg}, nil
}

// Capabilities returns the switch constraints learned at handshake.
func (d *DataPlaneClient) Capabilities() pisa.Config { return d.cfg }

// Instrument registers the client's control-channel metrics (frames,
// bytes, and per-request round-trip time) against reg.
func (d *DataPlaneClient) Instrument(reg *telemetry.Registry) { d.c.Instrument(reg) }

// Install ships a program to the switch.
func (d *DataPlaneClient) Install(prog *pisa.Program) error {
	return d.c.Call(netproto.MsgInstall, prog, netproto.MsgInstallOK, nil)
}

// UpdateDynTable replaces a dynamic filter's entries.
func (d *DataPlaneClient) UpdateDynTable(qid uint16, level uint8, side pisa.Side, opIdx int, keys []tuple.Value) (int, error) {
	var res netproto.UpdateResult
	err := d.c.Call(netproto.MsgUpdateTable, &netproto.UpdateTable{
		QID: qid, Level: level, Side: side, OpIdx: opIdx, Keys: keys},
		netproto.MsgUpdateOK, &res)
	if err != nil {
		return 0, err
	}
	return res.Entries, nil
}

// EndWindow closes the switch window and returns dumps and stats.
func (d *DataPlaneClient) EndWindow() ([]pisa.RegDump, pisa.WindowStats, error) {
	var wd netproto.WindowData
	if err := d.c.Call(netproto.MsgEndWindow, nil, netproto.MsgWindowData, &wd); err != nil {
		return nil, pisa.WindowStats{}, err
	}
	return wd.Dumps, wd.Stats, nil
}
