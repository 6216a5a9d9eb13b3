package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/queries"
	"repro/internal/trace"
)

// writeCapture writes what `tracegen -pkts 4000 -windows 4` writes, with or
// without the standard attack suite, and reads it back the way -pcap does.
func writeCapture(t *testing.T, attacks bool) [][][]byte {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 4000
	cfg.Windows = 4
	windows, err := readPcapWindows(capture(t, cfg, attacks), cfg.Window)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != cfg.Windows {
		t.Fatalf("capture sliced into %d windows, want %d", len(windows), cfg.Windows)
	}
	return windows
}

// capture writes the trace cfg describes as a pcap file and returns its path.
func capture(t *testing.T, cfg trace.Config, attacks bool) string {
	t.Helper()
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attacks {
		trace.StandardAttackSuite(g)
	}
	path := filepath.Join(t.TempDir(), "trace.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePcap(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// scaled lists the thresholds eval.ScaledParams scales with packets per window.
func scaled(p queries.Params) []uint64 {
	return []uint64{p.NewTCPThresh, p.SpreaderThresh, p.PortScanThresh, p.DDoSThresh,
		p.SYNFloodThresh, p.IncompleteThresh, p.SlowlorisBytesThresh, p.DNSTunnelThresh,
		p.DNSReflectThresh, p.ZorroTelnetThresh}
}

// TestPcapThresholdsFollowTheCapture: replaying a capture scales the query
// thresholds with the packets per window the capture holds, not with the
// -pkts default of 100k. The generator's windows are not exactly its budget
// (background runs a few packets over; the attack suite's needles add about
// an eighth, and a capture cannot tell them from background), so a `tracegen
// -pkts 4000` capture lands within an eighth above what `-pkts 4000`
// synthesis sets — against 25x above when the flag decided.
func TestPcapThresholdsFollowTheCapture(t *testing.T) {
	want := scaled(eval.ScaledParams(eval.Scale{PacketsPerWindow: 4000}))
	for _, attacks := range []bool{false, true} {
		pkts := meanPacketsPerWindow(writeCapture(t, attacks))
		got := scaled(eval.ScaledParams(eval.Scale{PacketsPerWindow: pkts}))
		for i := range want {
			if got[i] < want[i] || got[i] > want[i]*9/8 {
				t.Errorf("attacks=%v (%d pkts/window): threshold %d = %d, -pkts 4000 gives %d",
					attacks, pkts, i, got[i], want[i])
			}
		}
	}
	if meanPacketsPerWindow(nil) != 0 {
		t.Error("no windows: want 0")
	}
}

// TestNonPositiveWindowIsAnError: `sonata -window 0` (or below), with or
// without -pcap, prints an error and exits 1 instead of panicking in
// trace.Slice or query.MustBuild. The command runs in a child process: this
// test binary re-executed with SONATA_MAIN_ARGS set calls main with them.
func TestNonPositiveWindowIsAnError(t *testing.T) {
	if args := os.Getenv("SONATA_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"sonata"}, strings.Fields(args)...)
		main()
		return
	}
	cfg := trace.DefaultConfig()
	cfg.PacketsPerWindow = 100
	cfg.Windows = 1
	pcap := capture(t, cfg, false)
	for _, args := range []string{"-window 0", "-window -3s", "-window 0 -pcap " + pcap} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNonPositiveWindowIsAnError$")
		cmd.Env = append(os.Environ(), "SONATA_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 1 || strings.Contains(string(out), "panic") ||
			!strings.Contains(string(out), "window") {
			t.Errorf("sonata %s: exit %d (%v), want 1 with an error line:\n%s", args, code, err, out)
		}
	}
	for _, w := range []time.Duration{0, -time.Second} {
		if _, err := readPcapWindows(pcap, w); err == nil {
			t.Errorf("readPcapWindows(window %v) returned no error", w)
		}
	}
}
