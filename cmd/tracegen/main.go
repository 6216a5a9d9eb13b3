// Command tracegen writes a synthetic CAIDA-like trace, with the standard
// attack suite injected, to a pcap file. The output replays through
// cmd/sonata or any pcap tool.
//
// Usage:
//
//	tracegen -out trace.pcap [-pkts 100000] [-windows 6] [-seed 1]
//	         [-hosts 6000] [-window 3s] [-no-attacks]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/trace"
)

func main() {
	out := flag.String("out", "", "output pcap path (required)")
	pkts := flag.Int("pkts", 100_000, "background packets per window")
	windows := flag.Int("windows", 6, "number of windows")
	seed := flag.Int64("seed", 1, "generator seed")
	hosts := flag.Int("hosts", 6000, "host population")
	window := flag.Duration("window", 3*time.Second, "window length")
	noAttacks := flag.Bool("no-attacks", false, "background traffic only")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -out is required")
		os.Exit(2)
	}
	cfg := trace.DefaultConfig()
	cfg.Seed = *seed
	cfg.PacketsPerWindow = *pkts
	cfg.Windows = *windows
	cfg.Hosts = *hosts
	cfg.Window = *window
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		fatal(err)
	}
	if !*noAttacks {
		trace.StandardAttackSuite(g)
		for _, gt := range g.Truth() {
			fmt.Fprintf(os.Stderr, "[tracegen] %-14s victim/actor %d.%d.%d.%d active %v-%v\n",
				gt.Kind, byte(gt.Victim>>24), byte(gt.Victim>>16), byte(gt.Victim>>8), byte(gt.Victim),
				gt.Start, gt.End)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.WritePcap(f, g, runtime.GOMAXPROCS(0)); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "[tracegen] wrote %d windows x ~%d packets to %s\n",
		*windows, *pkts, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
