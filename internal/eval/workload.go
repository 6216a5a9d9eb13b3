package eval

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/planner"
	"repro/internal/queries"
	"repro/internal/trace"
)

// Workload couples a trace generator with a train/eval split. Window
// frames are generated once and cached so experiment runs share windows
// across goroutines; Preload fills the cache in parallel up front.
type Workload struct {
	Gen          *trace.Generator
	TrainWindows int
	// Workers is the shard count of every experiment built on the workload
	// with NewExperiment (0 or 1: one shard on the calling goroutine).
	Workers int

	mu    sync.Mutex
	cache map[int][][]byte
}

// Scale presets the workload size. The paper replays 20 Mpps against a
// 3-second window; the simulator scales that down while preserving the
// needle-to-haystack ratios that drive the planner.
type Scale struct {
	PacketsPerWindow int
	Windows          int
	TrainWindows     int
	Hosts            int
	Seed             int64
}

// SmallScale keeps unit tests and benchmarks fast.
func SmallScale() Scale {
	return Scale{PacketsPerWindow: 6_000, Windows: 5, TrainWindows: 2, Hosts: 600, Seed: 1}
}

// MediumScale is the default for cmd/eval.
func MediumScale() Scale {
	return Scale{PacketsPerWindow: 100_000, Windows: 6, TrainWindows: 2, Hosts: 6_000, Seed: 1}
}

// LargeScale approaches the paper's per-window volumes (use with patience).
func LargeScale() Scale {
	return Scale{PacketsPerWindow: 1_000_000, Windows: 6, TrainWindows: 2, Hosts: 20_000, Seed: 1}
}

// NewWorkload builds the standard evaluation workload: background traffic
// plus one instance of every attack class (the needles every query hunts).
func NewWorkload(s Scale) (*Workload, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.PacketsPerWindow = s.PacketsPerWindow
	cfg.Windows = s.Windows
	cfg.Hosts = s.Hosts
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	trace.StandardAttackSuite(g)
	if s.TrainWindows <= 0 || s.TrainWindows >= s.Windows {
		return nil, fmt.Errorf("eval: train windows %d must fall inside trace (%d windows)", s.TrainWindows, s.Windows)
	}
	return &Workload{Gen: g, TrainWindows: s.TrainWindows}, nil
}

// TrainingFrames extracts the training split.
func (w *Workload) TrainingFrames() []planner.Frames {
	out := make([]planner.Frames, w.TrainWindows)
	for i := 0; i < w.TrainWindows; i++ {
		out[i] = planner.Frames(w.Frames(i))
	}
	return out
}

// EvalWindowIndices lists the replay windows.
func (w *Workload) EvalWindowIndices() []int {
	var out []int
	for i := w.TrainWindows; i < w.Gen.Windows(); i++ {
		out = append(out, i)
	}
	return out
}

// Frames materializes one window's frames (cached, safe for concurrent
// use).
func (w *Workload) Frames(i int) [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cache == nil {
		w.cache = make(map[int][][]byte)
	}
	if f, ok := w.cache[i]; ok {
		return f
	}
	f := w.Gen.WindowRecords(i).Frames()
	w.cache[i] = f
	return f
}

// Preload materializes every window's frames using up to workers
// goroutines. Window generation is pure per window, so a parallel preload
// fills the cache with exactly the frames lazy generation would produce.
func (w *Workload) Preload(workers int) {
	w.Gen.GenerateWindows(workers, func(win trace.Window) {
		f := win.Frames()
		w.mu.Lock()
		if w.cache == nil {
			w.cache = make(map[int][][]byte, w.Gen.Windows())
		}
		if _, ok := w.cache[win.Index]; !ok {
			w.cache[win.Index] = f
		}
		w.mu.Unlock()
	})
}

// Window returns the configured window duration.
func (w *Workload) Window() time.Duration { return w.Gen.Config().Window }

// ScaledParams tunes query thresholds to the workload scale so the injected
// attacks satisfy their queries while background traffic stays below
// threshold. Thresholds grow with the per-window packet budget in
// proportion to the attack rates of trace.StandardAttackSuite.
func ScaledParams(s Scale) queries.Params {
	p := queries.DefaultParams()
	f := func(base int) uint64 {
		v := base * s.PacketsPerWindow / 100_000
		if v < 8 {
			v = 8
		}
		return uint64(v)
	}
	p.NewTCPThresh = f(800)
	// The SSH-brute signature counts distinct (source, size) pairs, which
	// scales with the attacker population (fixed by the suite), not volume.
	p.SSHBruteThresh = 30
	p.SpreaderThresh = f(400)
	p.PortScanThresh = f(400)
	p.DDoSThresh = f(700)
	p.SYNFloodThresh = f(800)
	p.IncompleteThresh = f(400)
	p.SlowlorisBytesThresh = f(12_000)
	p.SlowlorisRatioThresh = 5
	p.DNSTunnelThresh = f(200)
	p.DNSReflectThresh = f(700)
	p.ZorroTelnetThresh = f(100)
	return p
}
